package main

import (
	"context"

	"socrel/internal/adl"
	"socrel/internal/assembly"
	"socrel/internal/core"
	"socrel/internal/estimate"
	"socrel/internal/registry"
	socruntime "socrel/internal/runtime"
)

// driftAdapt: each op is one drift episode. net12's true failure rate
// steps between two fixed rates (so the state is stationary over a
// run); seeded outcomes at the new rate go
// through estimate.Reactor.Observe until the reactor has confirmed the
// drift and its runtime.Supervisor.Repredict has completed. Why: it is
// the only workload on the estimate -> runtime adaptation loop, where
// Repredict rebuilds an interpreted evaluator on every trigger.
type driftAdapt struct {
	p    assembly.PaperParams
	list float64
	re   *estimate.Reactor
	rp   *tracedRepredictor // traced runs only
	out  *outcomeGen
	tr   *tracer

	rates [2]float64 // low, high
	log   []estimate.RepredictEvent
}

// driftKey is the estimation bucket of net12's outcomes.
var driftKey = estimate.Key{Provider: "net12", Context: searchSvc}

// driftWindow is the estimator's window in outcomes. A short window
// confirms a step within about 80 outcomes, so an episode's time is
// mostly the re-prediction it ends with; the default 256 made episodes
// wait on evidence for 1.4 ms at the median and vary with the seed.
const driftWindow = 64

// maxEpisodeObs caps one episode; a reactor that has not acted by then
// has failed the op.
const maxEpisodeObs = 20_000

func buildDrift(seed int64, tr *tracer) (instance, error) {
	p, list := driftSetup(seed)
	doc, err := adl.ParseDSL(paperADL(p))
	if err != nil {
		return nil, err
	}
	asm, err := doc.BuildAssembly(asmName)
	if err != nil {
		return nil, err
	}
	sup, err := socruntime.NewSupervisor(context.Background(), socruntime.SupervisorConfig{}, asm,
		searchSvc, "sort", []registry.Candidate{{Provider: "sort2", Connector: "rpc"}},
		core.Options{}, searchSvc, searchParams(list)...)
	if err != nil {
		return nil, err
	}
	est, err := estimate.New(estimate.Config{Window: driftWindow})
	if err != nil {
		return nil, err
	}
	w := &driftAdapt{p: p, list: list, out: newOutcomeGen(seed), tr: tr, rates: [2]float64{driftLo, driftStep * driftLo}}
	var rep estimate.Repredictor = sup
	if tr != nil {
		w.rp = &tracedRepredictor{inner: sup, tr: tr}
		rep = w.rp
	}
	w.re, err = estimate.NewReactor(estimate.ReactorConfig{Estimator: est, Repredictor: rep, MinObservations: 40})
	if err != nil {
		return nil, err
	}
	if err := w.re.Bind(driftKey, "beta", driftLo); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *driftAdapt) prepare() {}

// do runs one episode until the reactor re-predicts. The true rate is
// whichever of the two rates lies farther (in ratio) from the rate the
// reactor has bound, so every episode is a step of at least a factor 2
// that the reactor must act on. A re-prediction can land short of the
// new rate (the window still holds outcomes from before the step); the
// next episode then steps the same way again instead of asking the
// reactor to chase a move it rightly judges too small to resolve.
func (w *driftAdapt) do(ctx context.Context) bool {
	rate := w.rates[1]
	if bound := w.re.Rate(driftKey); bound*bound > w.rates[0]*w.rates[1] {
		rate = w.rates[0]
	}
	for n := 1; n <= maxEpisodeObs; n++ {
		o := estimate.Outcome{Provider: driftKey.Provider, Context: driftKey.Context, Failed: w.out.failed(rate), Exposure: 1}
		var evs []estimate.RepredictEvent
		var err error
		if w.tr == nil {
			evs, err = w.re.Observe(ctx, o)
		} else {
			evs, err = w.tracedObserve(ctx, o)
		}
		if err != nil {
			return false
		}
		if len(evs) > 0 {
			w.log = append(w.log, evs...)
			if w.tr != nil {
				w.tr.count("episode_obs", float64(n))
			}
			return true
		}
	}
	return false
}

// tracedObserve times one Reactor.Observe; its self time excludes the
// Repredict it may have triggered. The layer reports the mean, not the
// median: most observations are a cheap window update, and the cost that
// matters is the tail of Step passes once the drift test has tripped,
// so obs_to_drift x observe_us + repredict_ms reconciles with the op.
func (w *driftAdapt) tracedObserve(ctx context.Context, o estimate.Outcome) ([]estimate.RepredictEvent, error) {
	w.rp.last = 0
	s := w.tr.now()
	evs, err := w.re.Observe(ctx, o)
	d := w.tr.now() - s - w.rp.last
	w.tr.count("observe_us", float64(d)/1e3)
	w.tr.count("observations", 1)
	return evs, err
}

func (w *driftAdapt) finish() {}

func (w *driftAdapt) startLog() {
	w.log = nil
}

// verify re-evaluates every re-prediction on a freshly built model at
// the new rate.
func (w *driftAdapt) verify() (int, error) {
	wrong := 0
	for _, ev := range w.log {
		p := w.p
		p.Gamma = ev.NewRate
		doc, err := adl.ParseDSL(paperADL(p))
		if err != nil {
			return 0, err
		}
		asm, err := doc.BuildAssembly(asmName)
		if err != nil {
			return 0, err
		}
		want, err := core.New(asm, core.Options{}).Pfail(searchSvc, searchParams(w.list)...)
		if err != nil {
			return 0, err
		}
		if ev.Key != driftKey || !closeEnough(ev.NewPfail, want) {
			wrong++
		}
	}
	return wrong, nil
}

func (w *driftAdapt) layers(ops int) layerSet {
	m := newLayerSet()
	m.put("estimate.observe_us", ratio{w.tr.total("observe_us"), w.tr.total("observations")}.Value())
	m.share("estimate.obs_to_drift", ratio{w.tr.total("episode_obs"), float64(ops)})
	m.put("runtime.repredict_ms", w.tr.median("runtime.repredict_ms"))
	return m
}

func (w *driftAdapt) close() {}
