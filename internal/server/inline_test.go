package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"socrel/internal/adl"
	"socrel/internal/core"
	socruntime "socrel/internal/runtime"
)

// loopDSL has one root whose flow is a two-state cycle (a retry loop):
// CompileParametric eliminates it symbolically under the default
// StateBound and falls back to the numeric kernel under StateBound 1.
const loopDSL = `
service cpu1 cpu {
    speed 1e9
    rate 1e-10
}
service loop composite(n) {
    attr phi 1e-6
    state a and nosharing {
        call cpu(n) internal phi
    }
    state b and nosharing {
        call cpu(n) internal phi
    }
    transition Start -> a prob 1
    transition a -> b prob 0.5
    transition a -> End prob 0.5
    transition b -> a prob 1
}
assembly main {
    bind loop.cpu -> cpu1
}
`

func compileLoop(t *testing.T, stateBound int) *core.CompiledAssembly {
	t.Helper()
	doc, err := adl.ParseDSL(loopDSL)
	if err != nil {
		t.Fatal(err)
	}
	asm, err := doc.BuildAssembly("main")
	if err != nil {
		t.Fatal(err)
	}
	ca, err := core.CompileParametric(asm, core.Options{}, core.ParametricOptions{StateBound: stateBound}, "loop")
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

// ctxProbe records the context each evaluation received: the request's
// own, or one that a deadline watcher cancels. Embedding forwards
// Inline.
type ctxProbe struct {
	*core.CompiledAssembly
	got context.Context
}

func (p *ctxProbe) PfailCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	p.got = ctx
	return p.CompiledAssembly.PfailCtx(ctx, service, params...)
}

type probeKey struct{}

func TestInlineOptInFollowsClosedForm(t *testing.T) {
	closed := compileLoop(t, 0)
	fallback := compileLoop(t, 1)
	if st := closed.ParametricStats(); st.Outputs != 1 {
		t.Fatalf("default StateBound: %+v, want the root compiled to a closed form", st)
	}
	if st := fallback.ParametricStats(); st.Fallbacks != 1 {
		t.Fatalf("StateBound 1: %+v, want the root to fall back", st)
	}
	ctx := context.WithValue(context.Background(), probeKey{}, 1)
	if !closed.Inline(ctx, "loop") {
		t.Error("closed-form root must opt in")
	}
	for _, c := range []struct {
		name string
		ca   *core.CompiledAssembly
		svc  string
	}{
		{"fallback root", fallback, "loop"},
		{"non-root service", closed, "cpu1"},
		{"unknown service", closed, "nope"},
	} {
		if c.ca.Inline(ctx, c.svc) {
			t.Errorf("%s must not opt in", c.name)
		}
	}

	// Every request evaluates on the caller's goroutine. With no
	// deadline, both evaluators see the request's own context; with one,
	// only the evaluator that does not report Inline gets a context that
	// a deadline watcher cancels.
	for _, c := range []struct {
		name   string
		ca     *core.CompiledAssembly
		inline bool
	}{
		{"closed form", closed, true},
		{"fallback", fallback, false},
	} {
		probe := &ctxProbe{CompiledAssembly: c.ca}
		srv := New(probe, Config{Service: "loop", Clock: socruntime.NewFakeClock(time.Unix(1000, 0))})
		for _, timeout := range []time.Duration{0, time.Hour} {
			ans := srv.Serve(ctx, Request{Params: []float64{64}, Timeout: timeout})
			checkInvariant(t, ans)
			if ans.Kind != socruntime.Exact {
				t.Fatalf("%s, timeout %v: %+v, want Exact", c.name, timeout, ans)
			}
			wantOwn := timeout == 0 || c.inline
			if gotOwn := probe.got == ctx; gotOwn != wantOwn {
				t.Errorf("%s, timeout %v: evaluated under the request's context = %v, want %v", c.name, timeout, gotOwn, wantOwn)
			}
		}
	}
}

// TestInlineServeContract: an inline request is still admitted, holds
// and returns a limiter slot, records its answer and emits exactly one
// outcome (none for a wrong-arity request, the client's fault), exact ⇔
// nil-error holds, and it is evaluated exactly once, however far the
// clock moves afterwards.
func TestInlineServeContract(t *testing.T) {
	ca := compileLoop(t, 0)
	clock := socruntime.NewFakeClock(time.Unix(1000, 0))
	var outcomes []Outcome
	srv := New(ca, Config{
		Service:   "loop",
		Clock:     clock,
		OnOutcome: func(o Outcome) { outcomes = append(outcomes, o) },
	})
	ctx := context.Background()
	const n = 20
	wantOutcomes := 0
	for i := 0; i < n; i++ {
		params := []float64{float64(16 * (i + 1))}
		if i%5 == 4 {
			params = []float64{1, 2} // wrong arity: an evaluation error
		}
		ans := srv.Serve(ctx, Request{Params: params, Timeout: time.Hour})
		checkInvariant(t, ans)
		if len(params) == 1 {
			want, err := ca.Pfail("loop", params...)
			if err != nil {
				t.Fatal(err)
			}
			if ans.Kind != socruntime.Exact || ans.Pfail != want {
				t.Fatalf("request %d: %+v, want Exact %v", i, ans, want)
			}
			wantOutcomes++
		} else if ans.Kind == socruntime.Exact {
			t.Fatalf("request %d: arity error answered Exact", i)
		}
		if st := srv.Stats(); st.Inflight != 0 {
			t.Fatalf("request %d: Inflight = %d after Serve returned", i, st.Inflight)
		}
		if len(outcomes) != wantOutcomes {
			t.Fatalf("request %d: %d outcomes, want %d", i, len(outcomes), wantOutcomes)
		}
		if o := outcomes[len(outcomes)-1]; !o.Success || o.Service != "loop" {
			t.Fatalf("request %d: outcome %+v", i, o)
		}
		clock.Advance(time.Millisecond)
	}
	clock.Advance(time.Hour) // far past every request's deadline
	st := srv.Stats()
	if st.Offered != n || st.Admitted != n || st.Exact != n-n/5 {
		t.Fatalf("stats = %+v", st)
	}
	// Each exact request evaluated once, plus the test's own reference
	// Pfail call: no duplicate evaluation ran.
	if pts, want := ca.ParametricStats().ParametricPoints, uint64(2*(n-n/5)); pts != want {
		t.Fatalf("closed-form points = %d, want %d", pts, want)
	}
}

// clockJump moves the server's clock between admission and evaluation:
// the deadline passes after the request took its slot.
type clockJump struct {
	*core.CompiledAssembly
	clock *socruntime.FakeClock
	by    time.Duration
}

func (j clockJump) Inline(ctx context.Context, service string) bool {
	j.clock.Advance(j.by)
	return j.CompiledAssembly.Inline(ctx, service)
}

// clockJumpNotInline is clockJump for an evaluator that reports no
// request inline.
type clockJumpNotInline struct {
	*stubEval
	clock *socruntime.FakeClock
	by    time.Duration
}

func (j clockJumpNotInline) Inline(context.Context, string) bool {
	j.clock.Advance(j.by)
	return false
}

func TestInlinePastDeadlineDegradesCanceled(t *testing.T) {
	ca := compileLoop(t, 0)
	t.Run("server clock", func(t *testing.T) {
		clock := socruntime.NewFakeClock(time.Unix(1000, 0))
		var outcomes int
		srv := New(clockJump{ca, clock, time.Second}, Config{
			Service:   "loop",
			Clock:     clock,
			OnOutcome: func(Outcome) { outcomes++ },
		})
		before := ca.ParametricStats().ParametricPoints
		ans := srv.Serve(context.Background(), Request{Params: []float64{64}, Timeout: 100 * time.Millisecond})
		checkInvariant(t, ans)
		if ans.Kind == socruntime.Exact || !errors.Is(ans.Err, core.ErrCanceled) {
			t.Fatalf("got %+v, want a degraded answer wrapping core.ErrCanceled", ans)
		}
		if after := ca.ParametricStats().ParametricPoints; after != before {
			t.Fatalf("an expired request was evaluated (%d points)", after-before)
		}
		// Nothing was evaluated, so nothing is published.
		if st := srv.Stats(); st.Inflight != 0 || outcomes != 0 {
			t.Fatalf("Inflight = %d, outcomes = %d, want 0 and 0", st.Inflight, outcomes)
		}
	})
	t.Run("not inline", func(t *testing.T) {
		// An evaluator that does not report Inline gets the same check:
		// the request is not evaluated and no outcome is published.
		clock := socruntime.NewFakeClock(time.Unix(1000, 0))
		var outcomes int
		eval := constEval(0.5)
		srv := New(clockJumpNotInline{eval, clock, time.Second}, Config{
			Service:   "app",
			Clock:     clock,
			OnOutcome: func(Outcome) { outcomes++ },
		})
		ans := srv.Serve(context.Background(), Request{Params: []float64{64}, Timeout: 100 * time.Millisecond})
		checkInvariant(t, ans)
		if ans.Kind != socruntime.Unavailable || !errors.Is(ans.Err, core.ErrCanceled) {
			t.Fatalf("got %+v, want Unavailable wrapping core.ErrCanceled", ans)
		}
		if n := eval.callCount(); n != 0 {
			t.Fatalf("an expired request was evaluated (%d calls)", n)
		}
		if st := srv.Stats(); st.Inflight != 0 || outcomes != 0 {
			t.Fatalf("Inflight = %d, outcomes = %d, want 0 and 0", st.Inflight, outcomes)
		}
	})
	t.Run("server clock with a record", func(t *testing.T) {
		// Once the scope has an exact answer, the passed deadline is
		// answered Stale at the requested point. Neither the expired
		// request nor its Stale evaluation emits an outcome.
		clock := socruntime.NewFakeClock(time.Unix(1000, 0))
		var outcomes int
		srv := New(clockJump{ca, clock, time.Second}, Config{
			Service:   "loop",
			Clock:     clock,
			OnOutcome: func(Outcome) { outcomes++ },
		})
		seed := srv.Serve(context.Background(), Request{Params: []float64{64}})
		if !seed.IsExact() {
			t.Fatalf("seed: %+v", seed)
		}
		ans := srv.Serve(context.Background(), Request{Params: []float64{128}, Timeout: 100 * time.Millisecond})
		checkInvariant(t, ans)
		want, err := ca.Pfail("loop", 128)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Kind != socruntime.Stale || ans.Pfail != want || !ans.AsOf.Equal(seed.AsOf) || !errors.Is(ans.Err, core.ErrCanceled) {
			t.Fatalf("got %+v, want Stale %v as of %v wrapping core.ErrCanceled", ans, want, seed.AsOf)
		}
		// Only the seed was evaluated, so only the seed is published.
		if st := srv.Stats(); st.Inflight != 0 || outcomes != 1 {
			t.Fatalf("Inflight = %d, outcomes = %d, want 0 and 1", st.Inflight, outcomes)
		}
	})
	t.Run("context deadline", func(t *testing.T) {
		// A wall-clock deadline in the past admits on a fake clock that
		// is decades earlier; the evaluator sees the expired context.
		clock := socruntime.NewFakeClock(time.Unix(1000, 0))
		srv := New(ca, Config{Service: "loop", Clock: clock})
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		ans := srv.Serve(ctx, Request{Params: []float64{64}})
		checkInvariant(t, ans)
		if ans.Kind == socruntime.Exact || !errors.Is(ans.Err, core.ErrCanceled) {
			t.Fatalf("got %+v, want a degraded answer wrapping core.ErrCanceled", ans)
		}
		if st := srv.Stats(); st.Inflight != 0 {
			t.Fatalf("Inflight = %d, want 0", st.Inflight)
		}
	})
}

// TestInlineServeConcurrent serves closed-form points inline from several
// goroutines at once (run it under -race): every answer is exact, each
// request emits one outcome, and every slot comes back.
func TestInlineServeConcurrent(t *testing.T) {
	ca := compileLoop(t, 0)
	var outcomes atomic.Int64
	srv := New(ca, Config{
		Service:       "loop",
		QueueCapacity: 256,
		OnOutcome:     func(Outcome) { outcomes.Add(1) },
	})
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ans := srv.Serve(context.Background(), Request{Params: []float64{float64(1 + (g*perG+i)%50)}})
				if ans.Kind != socruntime.Exact || ans.Err != nil {
					t.Errorf("goroutine %d request %d: %+v", g, i, ans)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := srv.Stats()
	if st.Inflight != 0 || st.QueueDepth != 0 || st.Exact != goroutines*perG {
		t.Fatalf("stats after the burst: %+v", st)
	}
	if n := outcomes.Load(); n != goroutines*perG {
		t.Fatalf("%d outcomes, want %d", n, goroutines*perG)
	}
}
