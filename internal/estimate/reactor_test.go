package estimate

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"socrel/internal/monitor"
)

type fakeRepredictor struct {
	calls []struct {
		provider, attr string
		rate           float64
	}
	err error
}

func (f *fakeRepredictor) Repredict(_ context.Context, provider, attr string, rate float64) (float64, float64, error) {
	f.calls = append(f.calls, struct {
		provider, attr string
		rate           float64
	}{provider, attr, rate})
	if f.err != nil {
		return 0, 0, f.err
	}
	return 0.1, 0.2, nil
}

func TestNewReactorValidation(t *testing.T) {
	if _, err := NewReactor(ReactorConfig{}); err == nil {
		t.Fatal("NewReactor accepted nil estimator")
	}
	e, _ := newTestEstimator(t, Config{})
	if _, err := NewReactor(ReactorConfig{Estimator: e, RelThreshold: -1}); err == nil {
		t.Fatal("NewReactor accepted negative threshold")
	}
	if _, err := NewReactor(ReactorConfig{Estimator: e, MinObservations: -3}); err == nil {
		t.Fatal("NewReactor accepted negative min observations")
	}
	r, err := NewReactor(ReactorConfig{Estimator: e})
	if err != nil {
		t.Fatalf("NewReactor: %v", err)
	}
	if r.cfg.RelThreshold != 0.25 || r.cfg.MinObservations != 20 {
		t.Fatalf("defaults not applied: %+v", r.cfg)
	}
	if err := r.Bind(Key{Provider: "p"}, "lambda", 0); err == nil {
		t.Fatal("Bind accepted zero rate")
	}
}

// driveDrift feeds seeded outcomes at the true rate until the bucket's
// drift verdict trips or max observations pass.
func driveDrift(e *Estimator, k Key, lam float64, seed int64, max int) {
	rng := rand.New(rand.NewSource(seed))
	pf := -math.Expm1(-lam)
	for i := 0; i < max; i++ {
		if e.Observe(Outcome{Provider: k.Provider, Context: k.Context, Load: k.Load,
			Failed: rng.Float64() < pf, Exposure: 1}) == monitor.Violating {
			return
		}
	}
}

func TestReactorRepredictsOnConfirmedDrift(t *testing.T) {
	e, _ := newTestEstimator(t, Config{})
	rep := &fakeRepredictor{}
	var published []RepredictEvent
	r, err := NewReactor(ReactorConfig{
		Estimator:   e,
		Repredictor: rep,
		OnRepredict: func(ev RepredictEvent) { published = append(published, ev) },
	})
	if err != nil {
		t.Fatalf("NewReactor: %v", err)
	}
	k := Key{Provider: "cpu1", Context: "app", Load: 0}
	if err := r.Bind(k, "lambda", 0.05); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if e.Bound(k) != 0.05 {
		t.Fatal("Bind did not set the estimator bound")
	}

	// Nothing to do while the verdict is undecided.
	if evs, err := r.Step(context.Background()); err != nil || len(evs) != 0 {
		t.Fatalf("idle Step: %v %v", evs, err)
	}

	driveDrift(e, k, 0.25, 5, 5000)
	evs, err := r.Step(context.Background())
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if len(evs) != 1 || len(rep.calls) != 1 {
		t.Fatalf("re-predictions: events=%d calls=%d", len(evs), len(rep.calls))
	}
	ev := evs[0]
	call := rep.calls[0]
	if call.provider != "cpu1" || call.attr != "lambda" {
		t.Fatalf("bad repredict call: %+v", call)
	}
	if ev.OldRate != 0.05 || ev.NewRate != call.rate || ev.OldPfail != 0.1 || ev.NewPfail != 0.2 {
		t.Fatalf("bad event: %+v", ev)
	}
	if ev.NewRate < ev.Estimate.Lo || ev.NewRate > ev.Estimate.Hi {
		t.Fatalf("rebound rate %g outside its own CI [%g, %g]", ev.NewRate, ev.Estimate.Lo, ev.Estimate.Hi)
	}
	if len(published) != 1 || published[0] != ev {
		t.Fatalf("OnRepredict mismatch: %+v", published)
	}
	if got := r.Rate(k); got != ev.NewRate {
		t.Fatalf("binding rate %g, want %g", got, ev.NewRate)
	}
	if got := e.Bound(k); got != ev.NewRate {
		t.Fatalf("estimator bound %g, want %g", got, ev.NewRate)
	}
	// Re-binding re-armed the detector: no immediate re-trigger.
	if v, _ := e.Verdict(k); v != monitor.Undecided {
		t.Fatalf("verdict after rebind: %v", v)
	}
	if evs, _ := r.Step(context.Background()); len(evs) != 0 {
		t.Fatal("Step re-predicted without fresh evidence")
	}
	s := r.Stats()
	if s.Repredicted != 1 || s.Triggered != 1 || s.Steps != 3 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestReactorSkipsSmallMoves(t *testing.T) {
	// Drift detector trips (ratio gates at 2x) but the threshold is set
	// higher than the actual move, so the reactor must hold fire.
	e, _ := newTestEstimator(t, Config{DriftRatio: 1.5})
	rep := &fakeRepredictor{}
	r, err := NewReactor(ReactorConfig{Estimator: e, Repredictor: rep, RelThreshold: 10})
	if err != nil {
		t.Fatalf("NewReactor: %v", err)
	}
	k := Key{Provider: "p", Context: "c", Load: 0}
	if err := r.Bind(k, "lambda", 0.05); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	driveDrift(e, k, 0.2, 9, 5000)
	if v, _ := e.Verdict(k); v != monitor.Violating {
		t.Fatal("drift never tripped")
	}
	if evs, err := r.Step(context.Background()); err != nil || len(evs) != 0 || len(rep.calls) != 0 {
		t.Fatalf("reactor acted on sub-threshold move: %v %v %d", evs, err, len(rep.calls))
	}
}

func TestReactorRetriesFailedRepredict(t *testing.T) {
	e, _ := newTestEstimator(t, Config{})
	boom := errors.New("rebind exploded")
	rep := &fakeRepredictor{err: boom}
	r, err := NewReactor(ReactorConfig{Estimator: e, Repredictor: rep})
	if err != nil {
		t.Fatalf("NewReactor: %v", err)
	}
	k := Key{Provider: "p", Context: "c", Load: 0}
	if err := r.Bind(k, "lambda", 0.05); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	driveDrift(e, k, 0.25, 6, 5000)
	if _, err := r.Step(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Step error = %v, want %v", err, boom)
	}
	if !errors.Is(r.LastErr(), boom) {
		t.Fatalf("LastErr = %v", r.LastErr())
	}
	if r.Rate(k) != 0.05 {
		t.Fatal("failed re-prediction moved the binding")
	}
	// The repredictor recovers; the next Step retries and succeeds.
	rep.err = nil
	evs, err := r.Step(context.Background())
	if err != nil || len(evs) != 1 {
		t.Fatalf("retry Step: %v %v", evs, err)
	}
	s := r.Stats()
	if s.RepredictErrors != 1 || s.Repredicted != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestReactorObserveConvenience(t *testing.T) {
	e, _ := newTestEstimator(t, Config{})
	rep := &fakeRepredictor{}
	r, err := NewReactor(ReactorConfig{Estimator: e, Repredictor: rep})
	if err != nil {
		t.Fatalf("NewReactor: %v", err)
	}
	k := Key{Provider: "p", Context: "c", Load: 0}
	if err := r.Bind(k, "lambda", 0.05); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	rng := rand.New(rand.NewSource(12))
	pf := -math.Expm1(-0.25)
	var events []RepredictEvent
	for i := 0; i < 5000 && len(events) == 0; i++ {
		evs, err := r.Observe(context.Background(), Outcome{
			Provider: k.Provider, Context: k.Context, Failed: rng.Float64() < pf})
		if err != nil {
			t.Fatalf("Observe: %v", err)
		}
		events = append(events, evs...)
	}
	if len(events) != 1 {
		t.Fatalf("Observe path produced %d re-predictions", len(events))
	}
}
