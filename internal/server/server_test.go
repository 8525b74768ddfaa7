package server

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
	socruntime "socrel/internal/runtime"
)

// stubEval is a swappable Evaluator for deterministic tests.
type stubEval struct {
	mu    sync.Mutex
	calls int
	fn    func(ctx context.Context, service string, params ...float64) (float64, error)
}

func (s *stubEval) PfailCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	s.mu.Lock()
	s.calls++
	fn := s.fn
	s.mu.Unlock()
	return fn(ctx, service, params...)
}

func (s *stubEval) set(fn func(ctx context.Context, service string, params ...float64) (float64, error)) {
	s.mu.Lock()
	s.fn = fn
	s.mu.Unlock()
}

func (s *stubEval) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func constEval(p float64) *stubEval {
	return &stubEval{fn: func(context.Context, string, ...float64) (float64, error) { return p, nil }}
}

func checkInvariant(t *testing.T, ans socruntime.Answer) {
	t.Helper()
	if (ans.Kind == socruntime.Exact) != (ans.Err == nil) {
		t.Fatalf("exact ⇔ nil-error invariant violated: kind=%v err=%v", ans.Kind, ans.Err)
	}
	if ans.Kind == 0 {
		t.Fatal("answer must always carry an explicit kind tag")
	}
}

func TestServeExact(t *testing.T) {
	clock := socruntime.NewFakeClock(time.Unix(1000, 0))
	srv := New(constEval(0.125), Config{
		Service: "app",
		Clock:   clock,
	})
	ans := srv.Serve(context.Background(), Request{})
	checkInvariant(t, ans)
	if ans.Kind != socruntime.Exact || ans.Pfail != 0.125 {
		t.Fatalf("got %+v, want Exact 0.125", ans)
	}
	if !ans.AsOf.Equal(clock.Now()) {
		t.Fatalf("AsOf = %v, want clock time %v", ans.AsOf, clock.Now())
	}
	st := srv.Stats()
	if st.Offered != 1 || st.Admitted != 1 || st.Exact != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Saturation != SatNormal {
		t.Fatalf("idle server saturation = %v, want normal", st.Saturation)
	}
}

func TestShedDeadlineBudget(t *testing.T) {
	clock := socruntime.NewFakeClock(time.Unix(1000, 0))
	srv := New(constEval(0.5), Config{
		Service: "app",
		Clock:   clock,
	})
	// Default service-time estimate is 1ms; half that budget cannot work.
	ans := srv.Serve(context.Background(), Request{Timeout: 500 * time.Microsecond})
	checkInvariant(t, ans)
	if ans.Kind != socruntime.Unavailable {
		t.Fatalf("kind = %v, want Unavailable (nothing to degrade to yet)", ans.Kind)
	}
	if !errors.Is(ans.Err, ErrDeadlineBudget) || !errors.Is(ans.Err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrDeadlineBudget wrapping ErrOverloaded", ans.Err)
	}
	st := srv.Stats()
	if st.ShedDeadline != 1 || st.Admitted != 0 {
		t.Fatalf("stats = %+v, want one deadline shed and no admission", st)
	}
}

// saturate occupies the server's only concurrency slot with an
// evaluation parked on the returned gate, then enqueues n waiters (each
// with a 1h budget so WaitForTimers can sequence on their await timers).
func saturate(t *testing.T, srv *Server, eval *stubEval, clock *socruntime.FakeClock, n int) (gate chan struct{}, answers chan socruntime.Answer) {
	t.Helper()
	gate = make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	eval.set(func(ctx context.Context, _ string, _ ...float64) (float64, error) {
		once.Do(func() { close(started) })
		select {
		case <-gate:
			return 0.5, nil
		case <-ctx.Done():
			return 0, fmt.Errorf("%w: %w", core.ErrCanceled, ctx.Err())
		}
	})
	answers = make(chan socruntime.Answer, n+1)
	go func() { answers <- srv.Serve(context.Background(), Request{}) }()
	<-started // the slot is held
	eval.set(func(context.Context, string, ...float64) (float64, error) { return 0.5, nil })
	for i := 0; i < n; i++ {
		go func() {
			answers <- srv.Serve(context.Background(), Request{Timeout: time.Hour})
		}()
		clock.WaitForTimers(i + 1)
	}
	return gate, answers
}

func TestQueueFullAndClassShedding(t *testing.T) {
	clock := socruntime.NewFakeClock(time.Unix(1000, 0))
	eval := constEval(0.5)
	srv := New(eval, Config{
		Service:       "app",
		QueueCapacity: 4,
		Limiter:       LimiterConfig{Initial: 1, Min: 1, Max: 1},
		Clock:         clock,
	})

	gate, answers := saturate(t, srv, eval, clock, 2)
	if sat := srv.Saturation(); sat != SatElevated {
		t.Fatalf("saturation at fill 0.5 = %v, want elevated", sat)
	}

	// Fill 0.5: best-effort sheds, interactive and batch still admitted.
	ans := srv.Serve(context.Background(), Request{Priority: BestEffort})
	checkInvariant(t, ans)
	if !errors.Is(ans.Err, ErrClassShed) {
		t.Fatalf("best-effort at fill 0.5: err = %v, want ErrClassShed", ans.Err)
	}

	// Third waiter brings fill to 0.75: batch sheds too.
	go func() { answers <- srv.Serve(context.Background(), Request{Timeout: time.Hour}) }()
	clock.WaitForTimers(3)
	if sat := srv.Saturation(); sat != SatSevere {
		t.Fatalf("saturation at fill 0.75 = %v, want severe", sat)
	}
	ans = srv.Serve(context.Background(), Request{Priority: Batch})
	checkInvariant(t, ans)
	if !errors.Is(ans.Err, ErrClassShed) {
		t.Fatalf("batch at fill 0.75: err = %v, want ErrClassShed", ans.Err)
	}

	// Fourth waiter fills the queue: even interactive sheds.
	go func() { answers <- srv.Serve(context.Background(), Request{Timeout: time.Hour}) }()
	clock.WaitForTimers(4)
	if sat := srv.Saturation(); sat != SatOverload {
		t.Fatalf("saturation at full queue = %v, want overload", sat)
	}
	ans = srv.Serve(context.Background(), Request{Priority: Interactive})
	checkInvariant(t, ans)
	if !errors.Is(ans.Err, ErrQueueFull) {
		t.Fatalf("interactive at full queue: err = %v, want ErrQueueFull", ans.Err)
	}

	// Release the slot: the backlog drains and every admitted request
	// completes exactly.
	close(gate)
	for i := 0; i < 5; i++ {
		got := <-answers
		checkInvariant(t, got)
		if got.Kind != socruntime.Exact {
			t.Fatalf("drained answer %d = %+v, want Exact", i, got)
		}
	}
	st := srv.Stats()
	if st.ShedClass != 2 || st.ShedQueueFull != 1 || st.Exact != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.QueueDepth != 0 || st.Inflight != 0 {
		t.Fatalf("server not quiescent after drain: %+v", st)
	}
}

func TestExpiredWhileQueued(t *testing.T) {
	clock := socruntime.NewFakeClock(time.Unix(1000, 0))
	eval := constEval(0.5)
	srv := New(eval, Config{
		Service: "app",
		Limiter: LimiterConfig{Initial: 1, Min: 1, Max: 1},
		Clock:   clock,
	})

	gate := make(chan struct{})
	started := make(chan struct{})
	eval.set(func(ctx context.Context, _ string, _ ...float64) (float64, error) {
		close(started)
		<-gate
		return 0.5, nil
	})
	first := make(chan socruntime.Answer, 1)
	go func() { first <- srv.Serve(context.Background(), Request{}) }()
	<-started

	// Queued request with a 50ms budget; the slot never frees in time.
	queued := make(chan socruntime.Answer, 1)
	go func() { queued <- srv.Serve(context.Background(), Request{Timeout: 50 * time.Millisecond}) }()
	clock.WaitForTimers(1)
	clock.Advance(60 * time.Millisecond)

	ans := <-queued
	checkInvariant(t, ans)
	if !errors.Is(ans.Err, ErrExpiredInQueue) {
		t.Fatalf("err = %v, want ErrExpiredInQueue", ans.Err)
	}
	if srv.Stats().SweptExpired != 1 {
		t.Fatalf("stats = %+v, want SweptExpired 1", srv.Stats())
	}

	eval.set(func(context.Context, string, ...float64) (float64, error) { return 0.5, nil })
	close(gate)
	if got := <-first; got.Kind != socruntime.Exact {
		t.Fatalf("blocker answer = %+v, want Exact", got)
	}
}

func TestSweepExpiredOnDispatch(t *testing.T) {
	clock := socruntime.NewFakeClock(time.Unix(1000, 0))
	eval := constEval(0.5)
	srv := New(eval, Config{
		Service:         "app",
		Limiter:         LimiterConfig{Initial: 1, Min: 1, Max: 1},
		InitialEstimate: 10 * time.Millisecond,
		Clock:           clock,
	})

	gate := make(chan struct{})
	started := make(chan struct{})
	eval.set(func(ctx context.Context, _ string, _ ...float64) (float64, error) {
		close(started)
		<-gate
		return 0.5, nil
	})
	first := make(chan socruntime.Answer, 1)
	go func() { first <- srv.Serve(context.Background(), Request{}) }()
	<-started
	eval.set(func(context.Context, string, ...float64) (float64, error) { return 0.5, nil })

	// Budget 30ms passes admission (estimate 10ms), but after 25ms the
	// remaining 5ms cannot cover the estimate: dispatch must sweep it
	// rather than grant it a doomed slot.
	queued := make(chan socruntime.Answer, 1)
	go func() { queued <- srv.Serve(context.Background(), Request{Timeout: 30 * time.Millisecond}) }()
	clock.WaitForTimers(1)
	clock.Advance(25 * time.Millisecond) // await timer (30ms) has not fired
	close(gate)

	ans := <-queued
	checkInvariant(t, ans)
	if !errors.Is(ans.Err, ErrExpiredInQueue) {
		t.Fatalf("err = %v, want ErrExpiredInQueue via dispatch sweep", ans.Err)
	}
	if got := <-first; got.Kind != socruntime.Exact {
		t.Fatalf("blocker answer = %+v, want Exact", got)
	}
	if st := srv.Stats(); st.SweptExpired != 1 {
		t.Fatalf("stats = %+v, want SweptExpired 1", st)
	}
}

// TestDegradationLadder pins the ladder for both kinds of evaluator. An
// inline (closed-form) evaluator answers a shed Stale at the requested
// point, as of the scope's last exact answer, once the scope has one.
// Any other evaluator, and any failure of the evaluation itself, goes
// through runtime.Degrade with no last-good value: Unavailable, a solver
// that stopped short included.
func TestDegradationLadder(t *testing.T) {
	shed := func(t *testing.T, srv *Server, scope string, params ...float64) socruntime.Answer {
		t.Helper()
		ans := srv.Serve(context.Background(), Request{Scope: scope, Params: params, Timeout: time.Nanosecond})
		checkInvariant(t, ans)
		if !errors.Is(ans.Err, ErrDeadlineBudget) {
			t.Fatalf("1ns budget: err = %v, want ErrDeadlineBudget", ans.Err)
		}
		return ans
	}

	t.Run("inline", func(t *testing.T) {
		ca := compileLoop(t, 0)
		clock := socruntime.NewFakeClock(time.Unix(1000, 0))
		var outcomes int
		srv := New(ca, Config{
			Service:   "loop",
			Clock:     clock,
			OnOutcome: func(Outcome) { outcomes++ },
		})
		ctx := context.Background()
		want := func(n float64) float64 {
			t.Helper()
			p, err := ca.PfailCtx(ctx, "loop", n)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		stale := func(ans socruntime.Answer, n float64, asOf time.Time) {
			t.Helper()
			if ans.Kind != socruntime.Stale || math.Float64bits(ans.Pfail) != math.Float64bits(want(n)) {
				t.Fatalf("n=%v: got %+v, want Stale %v", n, ans, want(n))
			}
			if !ans.AsOf.Equal(asOf) || ans.Age != clock.Now().Sub(asOf) {
				t.Fatalf("n=%v: AsOf %v Age %v, want %v and %v", n, ans.AsOf, ans.Age, asOf, clock.Now().Sub(asOf))
			}
		}

		// A shed before the scope's first exact answer: Unavailable.
		if ans := shed(t, srv, "", 64); ans.Kind != socruntime.Unavailable {
			t.Fatalf("no history: %+v, want Unavailable", ans)
		}

		// An exact answer starts the scope's record.
		t0 := clock.Now()
		if ans := srv.Serve(ctx, Request{Params: []float64{64}}); ans.Kind != socruntime.Exact || ans.Pfail != want(64) {
			t.Fatalf("seed answer = %+v, want Exact %v", ans, want(64))
		}

		// Sheds later: Stale at the same point and at an unseen one, each
		// the closed form at the requested point, dated by the record.
		clock.Advance(5 * time.Second)
		stale(shed(t, srv, "", 64), 64, t0)
		stale(shed(t, srv, "", 128), 128, t0)

		// Another scope has no record of its own.
		if ans := shed(t, srv, "other", 64); ans.Kind != socruntime.Unavailable {
			t.Fatalf("scope without a record: %+v, want Unavailable", ans)
		}

		// A failure of the evaluation itself is the program's, not the
		// server's: Unavailable even with a record.
		ans := srv.Serve(ctx, Request{Params: []float64{1, 2}})
		checkInvariant(t, ans)
		if ans.Kind != socruntime.Unavailable || errors.Is(ans.Err, ErrOverloaded) {
			t.Fatalf("arity error: %+v, want Unavailable with the evaluation's error", ans)
		}

		// A later exact answer moves the record forward.
		t1 := clock.Now()
		if ans := srv.Serve(ctx, Request{Params: []float64{32}}); ans.Kind != socruntime.Exact {
			t.Fatalf("second exact = %+v", ans)
		}
		clock.Advance(time.Second)
		stale(shed(t, srv, "", 256), 256, t1)

		st := srv.Stats()
		if st.Exact != 2 || st.Stale != 3 || st.Unavailable != 3 {
			t.Fatalf("ladder stats = %+v", st)
		}
		// Sheds and Stale evaluations emit no outcome, and neither does
		// the wrong-arity request, the client's fault; the two exact
		// evaluations do.
		if outcomes != 2 {
			t.Fatalf("outcomes = %d, want 2", outcomes)
		}
	})

	t.Run("not inline", func(t *testing.T) {
		clock := socruntime.NewFakeClock(time.Unix(1000, 0))
		eval := constEval(0.2)
		srv := New(eval, Config{
			Service: "app",
			Clock:   clock,
		})
		ctx := context.Background()

		// Fresh failure with no history: Unavailable.
		eval.set(func(context.Context, string, ...float64) (float64, error) {
			return 0, errors.New("boom")
		})
		ans := srv.Serve(ctx, Request{Params: []float64{9}})
		checkInvariant(t, ans)
		if ans.Kind != socruntime.Unavailable {
			t.Fatalf("no history: kind = %v, want Unavailable", ans.Kind)
		}

		eval.set(func(context.Context, string, ...float64) (float64, error) { return 0.2, nil })
		if ans := srv.Serve(ctx, Request{Params: []float64{1}}); ans.Kind != socruntime.Exact {
			t.Fatalf("seed answer = %+v, want Exact", ans)
		}

		// The same point fails later: Unavailable with the cause. No
		// per-point value is kept to serve it Stale.
		clock.Advance(5 * time.Second)
		cause := errors.New("backend down")
		eval.set(func(context.Context, string, ...float64) (float64, error) { return 0, cause })
		ans = srv.Serve(ctx, Request{Params: []float64{1}})
		checkInvariant(t, ans)
		if ans.Kind != socruntime.Unavailable || !errors.Is(ans.Err, cause) {
			t.Fatalf("got %+v, want Unavailable carrying the cause", ans)
		}

		// A solver that stopped short: Unavailable carrying the
		// residual, like any other evaluation failure.
		eval.set(func(context.Context, string, ...float64) (float64, error) {
			return 0, &linalg.NoConvergenceError{Iterations: 10, Residual: 0.05}
		})
		ans = srv.Serve(ctx, Request{Params: []float64{1}})
		checkInvariant(t, ans)
		var nce *linalg.NoConvergenceError
		if ans.Kind != socruntime.Unavailable || ans.Pfail != 0 || !errors.As(ans.Err, &nce) {
			t.Fatalf("got %+v, want Unavailable carrying the residual", ans)
		}

		// A shed with a record: Unavailable, and the evaluator is not
		// asked, because it does not serve inline.
		calls := eval.callCount()
		if ans := shed(t, srv, "", 1); ans.Kind != socruntime.Unavailable {
			t.Fatalf("shed without an inline evaluator: %+v, want Unavailable", ans)
		}
		if eval.callCount() != calls {
			t.Fatal("a shed request was evaluated")
		}

		st := srv.Stats()
		if st.Exact != 1 || st.Stale != 0 || st.Unavailable != 4 {
			t.Fatalf("ladder stats = %+v", st)
		}
	})
}

func TestDeadlineCancelsRunningEvaluation(t *testing.T) {
	clock := socruntime.NewFakeClock(time.Unix(1000, 0))
	eval := &stubEval{}
	eval.set(func(ctx context.Context, _ string, _ ...float64) (float64, error) {
		<-ctx.Done()
		return 0, fmt.Errorf("%w: %w", core.ErrCanceled, ctx.Err())
	})
	srv := New(eval, Config{
		Service:         "app",
		Limiter:         LimiterConfig{Initial: 4, Min: 1, Max: 4},
		InitialEstimate: 5 * time.Millisecond,
		Clock:           clock,
	})
	done := make(chan socruntime.Answer, 1)
	go func() { done <- srv.Serve(context.Background(), Request{Timeout: 10 * time.Millisecond}) }()
	// The only timer is the deadline watcher.
	clock.WaitForTimers(1)
	clock.Advance(11 * time.Millisecond)

	ans := <-done
	checkInvariant(t, ans)
	if ans.Kind != socruntime.Unavailable || !errors.Is(ans.Err, core.ErrCanceled) {
		t.Fatalf("got %+v, want Unavailable with a cancellation cause", ans)
	}
	// A deadline expiry is a capacity signal: the limiter must back off.
	if st := srv.Stats(); st.Limit >= 4 {
		t.Fatalf("limit = %v after deadline expiry, want < 4 (multiplicative decrease)", st.Limit)
	}
}

// inlineBlockingBatch reports Inline for every point, but its batch
// kernel runs until its context is canceled (or the test releases it):
// a grid too large to finish inside its deadline.
type inlineBlockingBatch struct {
	*stubEval
	entered chan struct{}
	release chan struct{}
}

func (inlineBlockingBatch) Inline(context.Context, string) bool { return true }

func (b inlineBlockingBatch) PfailBatchCtx(ctx context.Context, _ string, _ [][]float64) ([]float64, error) {
	close(b.entered)
	select {
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: %w", core.ErrCanceled, ctx.Err())
	case <-b.release:
		return nil, errors.New("released by the test: no deadline canceled the batch")
	}
}

// TestBatchDeadlineCancelsInlineEvaluator: Inline speaks for one point,
// not for a grid, so a batch with a deadline runs under the watcher even
// when the evaluator reports Inline, and the deadline cancels the kernel.
func TestBatchDeadlineCancelsInlineEvaluator(t *testing.T) {
	clock := socruntime.NewFakeClock(time.Unix(1000, 0))
	eval := inlineBlockingBatch{constEval(0.5), make(chan struct{}), make(chan struct{})}
	t.Cleanup(func() { close(eval.release) })
	srv := New(eval, Config{
		Service:         "app",
		Limiter:         LimiterConfig{Initial: 4, Min: 1, Max: 4},
		InitialEstimate: time.Millisecond,
		Clock:           clock,
	})
	done := make(chan []socruntime.Answer, 1)
	go func() {
		done <- srv.ServeBatch(context.Background(), BatchRequest{
			ParamSets: [][]float64{{1}, {2}, {3}},
			Timeout:   10 * time.Millisecond,
		})
	}()
	<-eval.entered
	// The only timer is the deadline watcher's.
	armed := make(chan struct{})
	go func() { clock.WaitForTimers(1); close(armed) }()
	select {
	case <-armed:
	case <-time.After(5 * time.Second):
		t.Fatal("no deadline watcher runs the batch of an Inline evaluator")
	}
	clock.Advance(11 * time.Millisecond)

	out := <-done
	if len(out) != 3 {
		t.Fatalf("len = %d, want 3", len(out))
	}
	for i, ans := range out {
		checkInvariant(t, ans)
		if ans.Kind != socruntime.Unavailable || !errors.Is(ans.Err, core.ErrCanceled) {
			t.Fatalf("point %d: got %+v, want Unavailable wrapping core.ErrCanceled", i, ans)
		}
	}
	if st := srv.Stats(); st.Inflight != 0 || st.Exact != 0 || st.Unavailable != 3 {
		t.Fatalf("stats = %+v, want no slot held and 3 Unavailable", st)
	}
}

func TestContextCancelWhileQueued(t *testing.T) {
	clock := socruntime.NewFakeClock(time.Unix(1000, 0))
	eval := constEval(0.5)
	srv := New(eval, Config{
		Service: "app",
		Limiter: LimiterConfig{Initial: 1, Min: 1, Max: 1},
		Clock:   clock,
	})
	gate := make(chan struct{})
	started := make(chan struct{})
	eval.set(func(ctx context.Context, _ string, _ ...float64) (float64, error) {
		close(started)
		<-gate
		return 0.5, nil
	})
	first := make(chan socruntime.Answer, 1)
	go func() { first <- srv.Serve(context.Background(), Request{}) }()
	<-started
	eval.set(func(context.Context, string, ...float64) (float64, error) { return 0.5, nil })

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan socruntime.Answer, 1)
	go func() { queued <- srv.Serve(ctx, Request{Timeout: time.Hour}) }()
	clock.WaitForTimers(1)
	cancel()

	ans := <-queued
	checkInvariant(t, ans)
	if !errors.Is(ans.Err, core.ErrCanceled) || !errors.Is(ans.Err, context.Canceled) {
		t.Fatalf("err = %v, want core.ErrCanceled wrapping context.Canceled", ans.Err)
	}
	if st := srv.Stats(); st.CanceledWaiting != 1 {
		t.Fatalf("stats = %+v, want CanceledWaiting 1", st)
	}
	close(gate)
	if got := <-first; got.Kind != socruntime.Exact {
		t.Fatalf("blocker answer = %+v, want Exact", got)
	}
}

func TestServeBatchFallbackLoop(t *testing.T) {
	clock := socruntime.NewFakeClock(time.Unix(1000, 0))
	eval := &stubEval{}
	eval.set(func(_ context.Context, _ string, params ...float64) (float64, error) {
		if params[0] == 2 {
			return 0, core.ErrDefectiveFlow
		}
		return 0.1 * params[0], nil
	})
	srv := New(eval, Config{
		Service: "app",
		Clock:   clock,
	})
	out := srv.ServeBatch(context.Background(), BatchRequest{
		ParamSets: [][]float64{{1}, {2}, {3}},
		Priority:  Batch,
	})
	if len(out) != 3 {
		t.Fatalf("got %d answers, want 3", len(out))
	}
	for i, ans := range out {
		checkInvariant(t, ans)
		_ = i
	}
	if out[0].Kind != socruntime.Exact || out[0].Pfail != 0.1 {
		t.Fatalf("out[0] = %+v, want Exact 0.1", out[0])
	}
	if out[1].Kind == socruntime.Exact {
		t.Fatalf("out[1] = %+v, want a degraded tag for the defective point", out[1])
	}
	if !errors.Is(out[1].Err, core.ErrDefectiveFlow) {
		t.Fatalf("out[1].Err = %v, want the defect cause", out[1].Err)
	}
	if out[2].Kind != socruntime.Exact || math.Abs(out[2].Pfail-0.3) > 1e-12 {
		t.Fatalf("out[2] = %+v, want Exact 0.3", out[2])
	}
}

// stubBatchEval adds the batch fast path with the engine's NaN
// partial-results contract.
type stubBatchEval struct {
	stubEval
	batch func(ctx context.Context, service string, sets [][]float64) ([]float64, error)
}

func (s *stubBatchEval) PfailBatchCtx(ctx context.Context, service string, sets [][]float64) ([]float64, error) {
	return s.batch(ctx, service, sets)
}

func TestServeBatchKernelNaNContract(t *testing.T) {
	clock := socruntime.NewFakeClock(time.Unix(1000, 0))
	eval := &stubBatchEval{
		batch: func(_ context.Context, _ string, sets [][]float64) ([]float64, error) {
			ps := make([]float64, len(sets))
			for i := range ps {
				ps[i] = 0.01 * float64(i)
			}
			ps[1] = math.NaN()
			return ps, core.ErrDefectiveFlow
		},
	}
	eval.set(func(context.Context, string, ...float64) (float64, error) { return 0, nil })
	srv := New(eval, Config{
		Service: "app",
		Clock:   clock,
	})
	out := srv.ServeBatch(context.Background(), BatchRequest{ParamSets: [][]float64{{1}, {2}, {3}}})
	for _, ans := range out {
		checkInvariant(t, ans)
	}
	if out[0].Kind != socruntime.Exact || out[2].Kind != socruntime.Exact {
		t.Fatalf("partial results must stay exact: %+v / %+v", out[0], out[2])
	}
	if out[1].Kind == socruntime.Exact || !errors.Is(out[1].Err, core.ErrDefectiveFlow) {
		t.Fatalf("NaN point must degrade with the batch error: %+v", out[1])
	}
}

func TestServeBatchShedDegradesEveryPoint(t *testing.T) {
	clock := socruntime.NewFakeClock(time.Unix(1000, 0))
	srv := New(constEval(0.5), Config{
		Service: "app",
		Clock:   clock,
	})
	out := srv.ServeBatch(context.Background(), BatchRequest{
		ParamSets: [][]float64{{1}, {2}},
		Timeout:   time.Microsecond, // below the service-time estimate
	})
	if len(out) != 2 {
		t.Fatalf("got %d answers, want 2", len(out))
	}
	for i, ans := range out {
		checkInvariant(t, ans)
		if !errors.Is(ans.Err, ErrDeadlineBudget) {
			t.Fatalf("point %d err = %v, want ErrDeadlineBudget", i, ans.Err)
		}
	}
}
