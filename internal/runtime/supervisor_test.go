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
		Clock: clk,
		Health: rt.HealthConfig{
			Breaker: rt.BreakerConfig{FailureThreshold: 3, OpenFor: 30 * time.Second, ProbeSuccesses: 1},
		},
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

	// Stream failures: the SPRT trips providerA's breaker and the
	// supervisor rebinds to providerB in the same call.
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

	// After the quarantine window the breakers half-open and exact service
	// resumes without manual intervention.
	clk.Advance(30 * time.Second)
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
	// breaker must not have moved.
	if sup.Tracker().BreakerState("providerA") != rt.Closed {
		t.Fatal("an expired caller deadline was held against the provider")
	}
}

func TestSupervisorEvalErrorsTriggerRebind(t *testing.T) {
	clk := rt.NewFakeClock(t0)
	gate := &gateResolver{}
	sup := newTestSupervisor(t, clk, func(r model.Resolver) model.Resolver {
		gate.mu.Lock()
		gate.base = r
		gate.mu.Unlock()
		return gate
	}, nil)
	ctx := context.Background()

	// Three consecutive typed eval errors reach the breaker threshold.
	evalErr := fmt.Errorf("%w: provider vanished", model.ErrUnknownService)
	gate.fail(evalErr)
	for i := 0; i < 2; i++ {
		if ans := sup.Pfail(ctx); ans.Kind == rt.Exact {
			t.Fatalf("call %d: got an exact answer from a failing evaluator", i)
		}
	}
	// The third failure trips the breaker; the supervisor rebinds to
	// providerB and retries against the still-failing gate, so the answer
	// degrades — then heal the gate and observe exact service again.
	ans := sup.Pfail(ctx)
	if ans.Kind == rt.Exact {
		t.Fatalf("answer = %+v, want degraded while the gate still fails", ans)
	}
	if len(sup.Rebinds()) == 0 {
		t.Fatal("eval-error breaker trip did not trigger a rebind")
	}
	if got := sup.Current().Provider; got != "providerB" {
		t.Fatalf("bound to %q, want providerB", got)
	}
	gate.fail(nil)
	if ans := sup.Pfail(ctx); !ans.IsExact() {
		t.Fatalf("post-heal answer = %+v, want exact", ans)
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
