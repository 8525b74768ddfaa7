package main

import (
	"context"
	"sync"
	"time"

	"socrel/internal/adl"
	"socrel/internal/assembly"
	"socrel/internal/cluster"
	"socrel/internal/core"
	"socrel/internal/estimate"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
)

// relfleet's defaults: gossip interval, admission queue and the
// latency target its AIMD limiter steers toward.
const (
	gossipInterval = 100 * time.Millisecond
	queueCapacity  = 64
	latencyTarget  = 50 * time.Millisecond
)

// compileModel parses the generated document and compiles its remote
// assembly the way relfleet and relserve do: parametric closed forms
// over the compiled engine. A traced build times the compile.
func compileModel(p assembly.PaperParams, tr *tracer) (*core.CompiledAssembly, error) {
	doc, err := adl.ParseDSL(paperADL(p))
	if err != nil {
		return nil, err
	}
	asm, err := doc.BuildAssembly(asmName)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ca, err := core.CompileParametric(asm, core.Options{}, core.ParametricOptions{}, searchSvc)
	if tr != nil {
		tr.add("core.compile_ms", float64(time.Since(start))/1e6)
	}
	return ca, err
}

// evaluator is what the serving layer is handed: the shared compiled
// assembly, or in a traced build the timing wrapper around it.
func evaluator(ca *core.CompiledAssembly, tr *tracer) server.Evaluator {
	if tr == nil {
		return ca
	}
	return &tracedEval{ca: ca, tr: tr}
}

// fleetPoint: single-point search requests through cluster.Fleet.Serve
// on a relfleet-shaped 3-replica fleet. Why: the ~0.2 us closed-form
// evaluation is about 1% of a request, so serving and cluster overhead
// (admission, the hedged evaluation goroutine, one forwarding hop on
// about 2/3 of requests, gossip sharing the cores) is what shows here,
// and a change to the core kernel alone should show nothing.
type fleetPoint struct {
	p   assembly.PaperParams
	ca  *core.CompiledAssembly
	f   *cluster.Fleet
	gen *pointGen
	tr  *tracer

	stop chan struct{}
	wg   sync.WaitGroup

	scope string
	list  float64
	log   []pointAnswer

	// traced runs only
	fwdSum         uint64
	fwdMS, localMS []float64
	server0        []server.Stats
	node0          []cluster.NodeStats
	par0           core.ParametricStats
	memo0          core.MemoStats
}

// pointAnswer is one Exact answer kept for the oracle.
type pointAnswer struct{ list, pfail float64 }

func buildFleet(seed int64, tr *tracer) (instance, error) {
	p := drawParams(newRand(seed, 0))
	ca, err := compileModel(p, tr)
	if err != nil {
		return nil, err
	}
	ev := evaluator(ca, tr)
	f, err := cluster.NewFleet(cluster.FleetConfig{
		Replicas: 3,
		Node:     cluster.NodeConfig{GossipInterval: gossipInterval},
		Server: server.Config{
			Service:       searchSvc,
			QueueCapacity: queueCapacity,
			Limiter:       server.LimiterConfig{LatencyTarget: latencyTarget},
		},
		NewEvaluator: func(string) server.Evaluator { return ev },
		NewEstimator: func(string) *estimate.Estimator {
			est, err := estimate.New(estimate.Config{})
			if err != nil {
				panic(err) // the default configuration always validates
			}
			return est
		},
	})
	if err != nil {
		return nil, err
	}
	w := &fleetPoint{p: p, ca: ca, f: f, gen: newPointGen(seed), tr: tr, stop: make(chan struct{})}
	w.wg.Add(1)
	go w.gossip()
	return w, nil
}

// gossip is the fleet's background gossip loop (what Fleet.Start runs),
// driven from here so that a traced run can time each round.
func (w *fleetPoint) gossip() {
	defer w.wg.Done()
	t := time.NewTicker(gossipInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			start := time.Now()
			w.f.GossipRound()
			if w.tr != nil {
				w.tr.add("cluster.gossip_round_us", float64(time.Since(start))/1e3)
			}
		}
	}
}

func (w *fleetPoint) prepare() { w.scope, w.list = w.gen.next() }

func (w *fleetPoint) do(ctx context.Context) bool {
	req := server.Request{Service: searchSvc, Scope: w.scope, Params: searchParams(w.list)}
	if w.tr != nil {
		return w.doTraced(ctx, req)
	}
	ans := w.f.Serve(ctx, req)
	return w.record(ans)
}

func (w *fleetPoint) record(ans socruntime.Answer) bool {
	if ans.Kind != socruntime.Exact || ans.Err != nil {
		return false
	}
	w.log = append(w.log, pointAnswer{w.list, ans.Pfail})
	return true
}

// doTraced serves one request inside an op span. Whether it was
// forwarded is read from the fleet's forwarding counters: the entry
// replica is picked inside Fleet.Serve, so the client cannot know it
// in advance.
func (w *fleetPoint) doTraced(ctx context.Context, req server.Request) bool {
	sp := &opSpan{}
	ctx = withOp(ctx, sp)
	s := w.tr.now()
	ans := w.f.Serve(ctx, req)
	op := interval{s, w.tr.now()}
	w.tr.add("server.self_us", float64(sp.self(op))/1e3)
	var fwd uint64
	for _, n := range w.f.Live() {
		fwd += n.Stats().Forwarded
	}
	ms := float64(op.End-op.Start) / 1e6
	if fwd != w.fwdSum {
		w.fwdMS = append(w.fwdMS, ms)
	} else {
		w.localMS = append(w.localMS, ms)
	}
	w.fwdSum = fwd
	return w.record(ans)
}

func (w *fleetPoint) finish() {}

func (w *fleetPoint) startLog() {
	w.log = nil
	if w.tr == nil {
		return
	}
	w.fwdMS, w.localMS = nil, nil
	w.server0, w.node0 = w.stats()
	w.par0, w.memo0 = w.ca.ParametricStats(), w.ca.MemoStats()
}

func (w *fleetPoint) stats() ([]server.Stats, []cluster.NodeStats) {
	var ss []server.Stats
	var ns []cluster.NodeStats
	for _, n := range w.f.Nodes() {
		ss = append(ss, n.Server().Stats())
		ns = append(ns, n.Stats())
	}
	return ss, ns
}

func (w *fleetPoint) verify() (int, error) {
	wrong := 0
	for _, a := range w.log {
		if !closeEnough(a.pfail, oracleSearch(w.p, a.list)) {
			wrong++
		}
	}
	return wrong, nil
}

func (w *fleetPoint) layers(ops int) layerSet {
	ss, ns := w.stats()
	m := newLayerSet()
	serverLayers(m, w.tr, ops, sumServer(w.server0), sumServer(ss))
	var local, fwd float64
	for i := range ns {
		local += float64(ns[i].ServedLocal - w.node0[i].ServedLocal)
		fwd += float64(ns[i].Forwarded - w.node0[i].Forwarded)
	}
	m.share("cluster.forward_ratio", ratio{fwd, local + fwd})
	m.put("cluster.forward_extra_us", (median(w.fwdMS)-median(w.localMS))*1e3)
	m.put("cluster.gossip_round_us", w.tr.median("cluster.gossip_round_us"))
	coreLayers(m, w.tr, w.par0, w.ca.ParametricStats(), w.memo0, w.ca.MemoStats())
	return m
}

func (w *fleetPoint) close() {
	close(w.stop)
	w.wg.Wait()
	w.f.Stop()
}

// sumServer adds up per-replica server counters.
func sumServer(ss []server.Stats) server.Stats {
	var t server.Stats
	for _, s := range ss {
		t.Offered += s.Offered
		t.Admitted += s.Admitted
		t.ShedQueueFull += s.ShedQueueFull
		t.ShedClass += s.ShedClass
		t.ShedDeadline += s.ShedDeadline
		t.SweptExpired += s.SweptExpired
		t.CanceledWaiting += s.CanceledWaiting
		t.ShedDraining += s.ShedDraining
		t.HedgesLaunched += s.HedgesLaunched
		t.HedgeWins += s.HedgeWins
	}
	return t
}

// serverLayers derives the serving layer's metrics from the traced spans
// and the change in its counters over the measured interval.
func serverLayers(m layerSet, tr *tracer, ops int, before, after server.Stats) {
	d := func(a, b uint64) float64 { return float64(a - b) }
	shed := d(after.ShedQueueFull, before.ShedQueueFull) + d(after.ShedClass, before.ShedClass) +
		d(after.ShedDeadline, before.ShedDeadline) + d(after.SweptExpired, before.SweptExpired) +
		d(after.CanceledWaiting, before.CanceledWaiting) + d(after.ShedDraining, before.ShedDraining)
	launched := d(after.HedgesLaunched, before.HedgesLaunched)
	m.put("server.self_us", tr.median("server.self_us"))
	m.share("server.eval_calls_per_op", ratio{tr.total("eval_calls"), float64(ops)})
	m.share("server.hedge_ratio", ratio{launched, d(after.Admitted, before.Admitted)})
	m.share("server.hedge_win_ratio", ratio{d(after.HedgeWins, before.HedgeWins), launched})
	m.share("server.shed_ratio", ratio{shed, d(after.Offered, before.Offered)})
}

// coreLayers derives the engine's metrics: evaluator span, memo and
// closed-form counters over the measured interval, compile time.
func coreLayers(m layerSet, tr *tracer, par0, par1 core.ParametricStats, memo0, memo1 core.MemoStats) {
	hits := float64(memo1.Hits - memo0.Hits)
	lookups := hits + float64(memo1.Misses-memo0.Misses)
	numeric := float64(par1.NumericPoints - par0.NumericPoints)
	points := numeric + float64(par1.ParametricPoints-par0.ParametricPoints)
	m.put("core.eval_us", tr.median("core.eval_us"))
	m.share("core.memo_hit_ratio", ratio{hits, lookups})
	m.share("core.parametric_fallback_ratio", ratio{numeric, points})
	m.put("core.compile_ms", tr.median("core.compile_ms"))
}
