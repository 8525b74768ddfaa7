package runtime_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"socrel/internal/core"
	"socrel/internal/linalg"
	"socrel/internal/model"
	"socrel/internal/monitor"
	rt "socrel/internal/runtime"
)

// gateResolver passes through to base until an error is installed with
// fail(); installed errors apply to every ServiceByName call.
type gateResolver struct {
	mu   sync.Mutex
	base model.Resolver
	err  error
}

func (g *gateResolver) fail(err error) {
	g.mu.Lock()
	g.err = err
	g.mu.Unlock()
}

func (g *gateResolver) ServiceByName(name string) (model.Service, error) {
	g.mu.Lock()
	err := g.err
	g.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return g.base.ServiceByName(name)
}

func (g *gateResolver) Bind(caller, role string) (string, string, error) {
	return g.base.Bind(caller, role)
}

func newTestSupervisor(t *testing.T, clk rt.Clock, wrap func(model.Resolver) model.Resolver, onRebind func(rt.RebindEvent)) *rt.Supervisor {
	t.Helper()
	asm, cands := buildWorkerAssembly(t, 0.01, 0.03)
	cfg := rt.SupervisorConfig{
		Clock:        clk,
		WrapResolver: wrap,
		OnRebind:     onRebind,
	}
	sup, err := rt.NewSupervisor(context.Background(), cfg, asm, "app", "worker", cands, core.Options{}, "app")
	if err != nil {
		t.Fatal(err)
	}
	return sup
}

func TestSupervisorInitialBindingAndExactAnswer(t *testing.T) {
	clk := rt.NewFakeClock(t0)
	sup := newTestSupervisor(t, clk, nil, nil)
	if got := sup.Current().Provider; got != "providerA" {
		t.Fatalf("initial binding %q, want providerA", got)
	}
	if math.Abs(sup.Predicted()-0.99) > 1e-9 {
		t.Fatalf("predicted reliability %g, want 0.99", sup.Predicted())
	}
	ans := sup.Pfail(context.Background())
	if !ans.IsExact() || ans.Kind != rt.Exact {
		t.Fatalf("answer = %+v, want exact", ans)
	}
	if math.Abs(ans.Pfail-0.01) > 1e-9 {
		t.Fatalf("Pfail = %g, want 0.01", ans.Pfail)
	}
	if ans.Provider != "providerA" || ans.Err != nil {
		t.Fatalf("answer = %+v, want providerA with nil Err", ans)
	}
	if math.Abs(ans.Reliability()-0.99) > 1e-9 {
		t.Fatalf("Reliability = %g, want 0.99", ans.Reliability())
	}
}

func TestSupervisorSPRTFailoverAndRecovery(t *testing.T) {
	clk := rt.NewFakeClock(t0)
	var events []rt.RebindEvent
	sup := newTestSupervisor(t, clk, nil, func(ev rt.RebindEvent) { events = append(events, ev) })
	ctx := context.Background()

	// Seed the last-known-good value while providerA is still healthy.
	if ans := sup.Pfail(ctx); !ans.IsExact() {
		t.Fatalf("setup answer = %+v, want exact", ans)
	}

	// Stream failures: providerA's SPRT decides Violating, quarantining
	// it, and the supervisor rebinds to providerB in the same call.
	var rebound bool
	for i := 0; i < 50 && !rebound; i++ {
		var err error
		_, rebound, err = sup.ReportOutcome(ctx, false)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !rebound {
		t.Fatal("supervisor never rebound under an all-failure stream")
	}
	if got := sup.Current().Provider; got != "providerB" {
		t.Fatalf("bound to %q after failover, want providerB", got)
	}
	if math.Abs(sup.Predicted()-0.97) > 1e-9 {
		t.Fatalf("predicted after failover = %g, want 0.97", sup.Predicted())
	}
	if len(events) != 1 {
		t.Fatalf("rebind events = %d, want 1", len(events))
	}
	ev := events[0]
	if ev.From.Provider != "providerA" || ev.To.Provider != "providerB" {
		t.Fatalf("rebind %q -> %q, want providerA -> providerB", ev.From.Provider, ev.To.Provider)
	}
	if !errors.Is(ev.Reason, rt.ErrProviderDegraded) {
		t.Fatalf("rebind reason = %v, want ErrProviderDegraded", ev.Reason)
	}
	if got := sup.Rebinds(); len(got) != 1 || got[0].To.Provider != "providerB" {
		t.Fatalf("Rebinds() = %+v, want the same single event", got)
	}

	// The new binding answers exactly.
	ans := sup.Pfail(ctx)
	if !ans.IsExact() || math.Abs(ans.Pfail-0.03) > 1e-9 {
		t.Fatalf("post-failover answer = %+v, want exact 0.03", ans)
	}

	// Now degrade providerB too: with providerA still quarantined there is
	// no healthy candidate, so the outcome reports the rebind failure ...
	var rebindErr error
	for i := 0; i < 50 && rebindErr == nil; i++ {
		_, _, rebindErr = sup.ReportOutcome(ctx, false)
	}
	if !errors.Is(rebindErr, rt.ErrAllQuarantined) {
		t.Fatalf("rebind error = %v, want ErrAllQuarantined", rebindErr)
	}

	// ... and answers degrade to the last known good value, tagged stale,
	// with staleness measured on the supervisor's clock.
	clk.Advance(5 * time.Second)
	ans = sup.Pfail(ctx)
	if ans.Kind != rt.Stale {
		t.Fatalf("answer under total quarantine = %+v, want stale", ans)
	}
	if math.Abs(ans.Pfail-0.03) > 1e-9 || ans.Provider != "providerB" {
		t.Fatalf("stale answer = %+v, want last good 0.03 from providerB", ans)
	}
	if ans.Err == nil || !errors.Is(ans.Err, rt.ErrQuarantined) {
		t.Fatalf("stale answer Err = %v, want ErrQuarantined", ans.Err)
	}
	if ans.Age < 5*time.Second {
		t.Fatalf("stale Age = %v, want >= 5s", ans.Age)
	}

	// After the quarantine window the providers are selectable again and
	// exact service resumes without manual intervention.
	clk.Advance(rt.QuarantineWindow)
	ans = sup.Pfail(ctx)
	if !ans.IsExact() {
		t.Fatalf("answer after quarantine window = %+v, want exact", ans)
	}
}

// TestSupervisorDegradesToBoundedOnNoConvergence checks the Supervisor's
// answer when the solver stops short after an exact answer.
func TestSupervisorDegradesToBoundedOnNoConvergence(t *testing.T) {
	clk := rt.NewFakeClock(t0)
	gate := &gateResolver{}
	sup := newTestSupervisor(t, clk, func(r model.Resolver) model.Resolver {
		gate.mu.Lock()
		gate.base = r
		gate.mu.Unlock()
		return gate
	}, nil)
	ctx := context.Background()

	if ans := sup.Pfail(ctx); !ans.IsExact() {
		t.Fatalf("setup answer = %+v, want exact", ans)
	}
	gate.fail(fmt.Errorf("iterative solve: %w", &linalg.NoConvergenceError{Iterations: 7, Residual: 0.02}))
	clk.Advance(time.Second)

	ans := sup.Pfail(ctx)
	// A solve that stopped short degrades like any other failure: Stale
	// at the last good value 0.01, with no interval around it.
	if ans.Kind != rt.Stale || math.Abs(ans.Pfail-0.01) > 1e-12 || ans.Age != time.Second {
		t.Fatalf("answer = %+v, want stale 0.01 aged 1s", ans)
	}
	if !errors.Is(ans.Err, linalg.ErrNoConvergence) {
		t.Fatalf("stale Err = %v, want ErrNoConvergence", ans.Err)
	}
	if ans.IsExact() {
		t.Fatal("stale answer claims to be exact")
	}
}

func TestSupervisorUnavailableWithoutHistory(t *testing.T) {
	clk := rt.NewFakeClock(t0)
	gate := &gateResolver{}
	sup := newTestSupervisor(t, clk, func(r model.Resolver) model.Resolver {
		gate.mu.Lock()
		gate.base = r
		gate.mu.Unlock()
		return gate
	}, nil)

	// Fail before any exact answer exists: nothing to serve.
	gate.fail(fmt.Errorf("%w: registry flaking", model.ErrTransient))
	ans := sup.Pfail(context.Background())
	if ans.Kind != rt.Unavailable {
		t.Fatalf("answer = %+v, want unavailable", ans)
	}
	if ans.Err == nil {
		t.Fatal("unavailable answer lost its cause")
	}
}

func TestSupervisorStaleOnCanceledEvaluation(t *testing.T) {
	clk := rt.NewFakeClock(t0)
	gate := &gateResolver{}
	sup := newTestSupervisor(t, clk, func(r model.Resolver) model.Resolver {
		gate.mu.Lock()
		gate.base = r
		gate.mu.Unlock()
		return gate
	}, nil)
	if ans := sup.Pfail(context.Background()); !ans.IsExact() {
		t.Fatalf("setup answer = %+v, want exact", ans)
	}
	clk.Advance(2 * time.Second)

	// An evaluation that dies on an expired deadline degrades to the last
	// known good value instead of failing the caller.
	gate.fail(fmt.Errorf("%w: evaluation deadline expired: %w", core.ErrCanceled, context.DeadlineExceeded))
	ans := sup.Pfail(context.Background())
	if ans.Kind != rt.Stale {
		t.Fatalf("answer = %+v, want stale", ans)
	}
	if !errors.Is(ans.Err, core.ErrCanceled) {
		t.Fatalf("stale Err = %v, want ErrCanceled", ans.Err)
	}
	if math.Abs(ans.Pfail-0.01) > 1e-9 || ans.Age < 2*time.Second {
		t.Fatalf("stale answer = %+v, want last good 0.01 aged >= 2s", ans)
	}

	// A deadline is the caller's choice, not the provider's failure: the
	// provider must not have been quarantined or rebound away from.
	if sup.Tracker().Quarantined("providerA") || sup.Current().Provider != "providerA" {
		t.Fatal("an expired caller deadline was held against the provider")
	}
}

// TestSupervisorEvalErrorsDegradeWithoutRebind: a failing evaluation
// degrades the answer but is not evidence against the provider. Only
// invocation outcomes are, so no number of evaluation errors quarantines
// or rebinds.
func TestSupervisorEvalErrorsDegradeWithoutRebind(t *testing.T) {
	clk := rt.NewFakeClock(t0)
	gate := &gateResolver{}
	sup := newTestSupervisor(t, clk, func(r model.Resolver) model.Resolver {
		gate.mu.Lock()
		gate.base = r
		gate.mu.Unlock()
		return gate
	}, nil)
	ctx := context.Background()
	if ans := sup.Pfail(ctx); !ans.IsExact() {
		t.Fatalf("setup answer = %+v, want exact", ans)
	}

	evalErr := fmt.Errorf("%w: provider vanished", model.ErrUnknownService)
	gate.fail(evalErr)
	for i := 0; i < 10; i++ {
		ans := sup.Pfail(ctx)
		if ans.Kind != rt.Stale || math.Abs(ans.Pfail-0.01) > 1e-9 || !errors.Is(ans.Err, model.ErrUnknownService) {
			t.Fatalf("call %d: answer = %+v, want stale 0.01 wrapping ErrUnknownService", i, ans)
		}
	}
	if len(sup.Rebinds()) != 0 {
		t.Fatalf("evaluation errors caused rebinds: %+v", sup.Rebinds())
	}
	if sup.Current().Provider != "providerA" || sup.Tracker().Quarantined("providerA") {
		t.Fatal("evaluation errors were held against providerA")
	}
	gate.fail(nil)
	if ans := sup.Pfail(ctx); !ans.IsExact() || ans.Provider != "providerA" {
		t.Fatalf("post-heal answer = %+v, want exact from providerA", ans)
	}
}

// TestSupervisorRequarantinesReturningProvider: a provider that comes
// back from quarantine is judged afresh on its invocation outcomes.
// providerA trips and the supervisor moves to providerB; after the window
// providerB trips and providerA is bound again. If providerA then fails
// every invocation it must be rebound away within a bounded number of
// outcomes (two tripped it the first time), instead of serving forever
// on an SPRT still decided from its first trip.
func TestSupervisorRequarantinesReturningProvider(t *testing.T) {
	clk := rt.NewFakeClock(t0)
	sup := newTestSupervisor(t, clk, nil, nil)
	ctx := context.Background()
	failUntilRebound := func(want string) int {
		t.Helper()
		for n := 1; n <= 50; n++ {
			_, rebound, err := sup.ReportOutcome(ctx, false)
			if err != nil {
				t.Fatalf("outcome %d: %v", n, err)
			}
			if rebound {
				if got := sup.Current().Provider; got != want {
					t.Fatalf("rebound to %q, want %q", got, want)
				}
				return n
			}
		}
		t.Fatalf("not rebound to %s within 50 failed outcomes (bound to %s)", want, sup.Current().Provider)
		return 0
	}

	failUntilRebound("providerB")
	clk.Advance(rt.QuarantineWindow)
	failUntilRebound("providerA")
	// Answers from the returning provider are exact, as before.
	for i := 0; i < 3; i++ {
		if ans := sup.Pfail(ctx); !ans.IsExact() || ans.Provider != "providerA" {
			t.Fatalf("answer = %+v, want exact from providerA", ans)
		}
	}
	clk.Advance(rt.QuarantineWindow) // providerB's window ends too
	n := failUntilRebound("providerB")
	t.Logf("returning providerA rebound away after %d failed outcomes", n)
	evs := sup.Rebinds()
	if last := evs[len(evs)-1]; last.From.Provider != "providerA" || !errors.Is(last.Reason, rt.ErrProviderDegraded) {
		t.Fatalf("last rebind = %+v, want away from providerA for ErrProviderDegraded", last)
	}
}

func TestSupervisorCheckpointSurvivesRestart(t *testing.T) {
	clk := rt.NewFakeClock(t0)
	sup := newTestSupervisor(t, clk, nil, nil)
	ctx := context.Background()
	// Feed failures until providerA's SPRT decides Violating (the trip also
	// rebinds to the still-healthy providerB).
	for i := 0; i < 10 && sup.Tracker().Verdict("providerA") != monitor.Violating; i++ {
		if _, _, err := sup.ReportOutcome(ctx, false); err != nil {
			t.Fatal(err)
		}
	}
	if sup.Tracker().Verdict("providerA") != monitor.Violating {
		t.Fatal("setup: providerA not Violating")
	}
	snap := sup.Checkpoint()

	// A fresh supervisor (e.g. after a process restart) restores the SPRT
	// evidence without losing it to the rebind.
	sup2 := newTestSupervisor(t, clk, nil, nil)
	if err := sup2.RestoreCheckpoint(snap); err != nil {
		t.Fatal(err)
	}
	if v := sup2.Tracker().Verdict("providerA"); v != monitor.Violating {
		t.Fatalf("restored verdict = %v, want Violating", v)
	}
}
