package server_test

import (
	"context"
	"fmt"
	gorun "runtime"
	"testing"
	"time"

	"socrel/internal/assembly"
	"socrel/internal/core"
	"socrel/internal/faultinject"
	"socrel/internal/model"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
)

// buildSoakAssembly is a small composite app bound to a constant
// provider, evaluated through the interpreted engine so fault-injected
// resolver failures land at evaluation time (the compiled engine
// resolves bindings at compile time and would never see them).
func buildSoakAssembly(t *testing.T) *assembly.Assembly {
	t.Helper()
	asm := assembly.New("soak")
	asm.MustAddService(model.NewConstant("provider", 0.02))
	app := model.NewComposite("app", nil, nil)
	st, err := app.Flow().AddState("work", model.AND, model.NoSharing)
	if err != nil {
		t.Fatal(err)
	}
	st.AddRequest(model.Request{Role: "worker"})
	if err := app.Flow().AddTransitionP(model.StartState, "work", 1); err != nil {
		t.Fatal(err)
	}
	if err := app.Flow().AddTransitionP("work", model.EndState, 1); err != nil {
		t.Fatal(err)
	}
	asm.MustAddService(app)
	asm.AddBinding("app", "worker", "provider", "")
	return asm
}

// freshEval builds a new interpreted evaluator per call: the interpreted
// engine is single-goroutine and memoizes aggressively, so a shared
// instance would neither tolerate the server's concurrency nor let the
// fault injector fire past the first call. A fresh instance per request
// is also the worst case the admission controller is supposed to
// survive: every evaluation pays full resolution cost. Each evaluation
// then holds its slot for hold (less if its context ends first), so the
// server's capacity is set by hold and not by how fast the host runs.
type freshEval struct {
	resolver model.Resolver
	opts     core.Options
	hold     time.Duration
}

func (f freshEval) PfailCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	p, err := core.New(f.resolver, f.opts).PfailCtx(ctx, service, params...)
	t := time.NewTimer(f.hold)
	defer t.Stop()
	select {
	case <-t.C:
		return p, err
	case <-ctx.Done():
		return 0, fmt.Errorf("%w: %w", core.ErrCanceled, ctx.Err())
	}
}

// TestChaosSoakOverloadLadder floods an admission-controlled server with
// a jittered burst of mixed-priority, mixed-deadline requests while the
// underlying resolver injects transient lookup and binding failures.
// Acceptance invariants, checked under -race:
//
//   - every answer is tagged, and exact ⇔ nil-error holds throughout;
//   - the burst exercises the ladder: some answers are exact, some are
//     degraded (shed or failed), and shedding actually fired;
//   - the server quiesces (no in-flight slots, empty queue) and no
//     goroutines leak.
//
// The overload holds by construction. Each evaluation holds its slot
// for 1ms, and the limiter allows at most Max = 4 slots, so the server
// completes at most 4 requests per ms. The burst offers one request per
// 20µs (50 per ms, 12.5 times that capacity) over a window of
// n×20µs + 100µs of jitter: 6.1ms for n = 300, 1.3ms for n = 60. At
// most Max + QueueCapacity + Max×⌈window/hold⌉ requests can find room:
// 4 + 8 + 4×7 = 40 of 300, or 4 + 8 + 4×2 = 20 of 60. The rest are shed,
// however little the serving path itself costs.
func TestChaosSoakOverloadLadder(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	before := gorun.NumGoroutine()

	asm := buildSoakAssembly(t)
	inj := faultinject.Wrap(asm, faultinject.Options{
		Seed:              1234,
		LookupFailureRate: 0.20,
		BindFailureRate:   0.15,
		ExemptServices:    []string{"app"},
	})
	srv := server.New(freshEval{resolver: inj, hold: time.Millisecond}, server.Config{
		Service:       "app",
		QueueCapacity: 8,
		Limiter: server.LimiterConfig{
			Initial:       2,
			Min:           1,
			Max:           4,
			LatencyTarget: 2 * time.Millisecond,
		},
		InitialEstimate: 50 * time.Microsecond,
	})
	ctx := context.Background()

	// Warm-up: serve until one exact answer starts the scope's record.
	warm := 0
	for ; warm < 200; warm++ {
		if srv.Serve(ctx, server.Request{}).IsExact() {
			break
		}
	}
	if warm == 200 {
		t.Fatal("warm-up never produced an exact answer")
	}

	answers := make(chan socruntime.Answer, n)
	rep := faultinject.Burst(faultinject.BurstConfig{
		N:       n,
		Arrival: 20 * time.Microsecond,
		Jitter:  100 * time.Microsecond,
		Seed:    99,
	}, func(i int) error {
		req := server.Request{Priority: server.Priority(i % 3)}
		switch i % 4 {
		case 0:
			req.Timeout = 50 * time.Microsecond // mostly doomed budgets
		case 1, 2:
			req.Timeout = 250 * time.Millisecond
		}
		ans := srv.Serve(ctx, req)
		answers <- ans
		if ans.Err != nil {
			return fmt.Errorf("request %d degraded: %w", i, ans.Err)
		}
		return nil
	})
	close(answers)
	if rep.Launched != n {
		t.Fatalf("burst launched %d, want %d", rep.Launched, n)
	}

	var exact, degraded int
	for ans := range answers {
		if ans.Kind == socruntime.AnswerKind(0) {
			t.Fatalf("untagged answer under overload: %+v", ans)
		}
		if (ans.Kind == socruntime.Exact) != (ans.Err == nil) {
			t.Fatalf("exact ⇔ nil-error invariant violated: %+v", ans)
		}
		if ans.Kind == socruntime.Exact {
			exact++
		} else {
			degraded++
		}
	}
	if exact+degraded != n {
		t.Fatalf("got %d answers, want %d", exact+degraded, n)
	}
	if exact == 0 {
		t.Fatal("soak produced no exact answers: server never actually served")
	}
	if degraded == 0 {
		t.Fatal("soak produced no degraded answers: overload never engaged the ladder")
	}

	st := srv.Stats()
	if st.Inflight != 0 || st.QueueDepth != 0 {
		t.Fatalf("server not quiescent after burst: %+v", st)
	}
	sheds := st.ShedQueueFull + st.ShedClass + st.ShedDeadline + st.SweptExpired
	if sheds == 0 {
		t.Fatalf("no load shedding under a %d-request burst into a queue of 8: %+v", n, st)
	}
	if kinds := st.Exact + st.Stale + st.Unavailable; kinds != uint64(n+warm+1) {
		t.Fatalf("answer-kind counters sum to %d, want %d served requests", kinds, n+warm+1)
	}
	if inj.Injected() == 0 {
		t.Fatal("fault injector never fired")
	}
	t.Logf("soak: %d exact, %d degraded (%d sheds) over %d requests; %d injected faults; stats %+v",
		exact, degraded, sheds, n, inj.Injected(), st)

	// Zero goroutine leaks: deadline watchers and waiters must
	// all unwind once the burst drains.
	deadline := time.Now().Add(2 * time.Second)
	for {
		gorun.GC()
		if g := gorun.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, gorun.NumGoroutine(), buf[:gorun.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
