package server_test

import (
	"context"
	"errors"
	gorun "runtime"
	"testing"
	"time"

	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
)

// gateEval blocks every evaluation until release closes, signaling entry
// on entered, so tests control exactly when in-flight work finishes.
type gateEval struct {
	entered chan struct{}
	release chan struct{}
}

func (g *gateEval) PfailCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	g.entered <- struct{}{}
	<-g.release
	return 0.25, nil
}

func newGateEval() *gateEval {
	return &gateEval{entered: make(chan struct{}, 8), release: make(chan struct{})}
}

func waitDraining(t *testing.T, srv *server.Server) {
	t.Helper()
	for i := 0; !srv.Draining(); i++ {
		if i > 1e7 {
			t.Fatal("server never started draining")
		}
		gorun.Gosched()
	}
}

// TestDrainIdleReturnsImmediately: draining a quiescent server completes
// at once and closes admission.
func TestDrainIdleReturnsImmediately(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	srv := server.New(newGateEval(), server.Config{Clock: clk})

	st, err := srv.Drain(context.Background(), time.Second)
	if err != nil {
		t.Fatalf("Drain on idle server: %v", err)
	}
	if st.Offered != 0 {
		t.Fatalf("unexpected stats %+v", st)
	}

	ans := srv.Serve(context.Background(), server.Request{})
	if ans.Kind == socruntime.Exact {
		t.Fatal("draining server served an exact answer")
	}
	if !errors.Is(ans.Err, server.ErrDraining) || !errors.Is(ans.Err, server.ErrOverloaded) {
		t.Fatalf("shed error %v does not wrap ErrDraining/ErrOverloaded", ans.Err)
	}
	if got := srv.Stats().ShedDraining; got != 1 {
		t.Fatalf("ShedDraining = %d, want 1", got)
	}
}

// TestDrainFinishesInFlightAndQueued: work admitted before the drain —
// both holding a slot and parked in the queue — runs to completion and
// returns exact answers, while new arrivals shed; Drain returns once the
// last of it finishes.
func TestDrainFinishesInFlightAndQueued(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	eval := newGateEval()
	srv := server.New(eval, server.Config{
		Clock:   clk,
		Limiter: server.LimiterConfig{Initial: 1, Min: 1, Max: 1},
	})
	ctx := context.Background()

	answers := make(chan socruntime.Answer, 2)
	go func() { answers <- srv.Serve(ctx, server.Request{}) }()
	<-eval.entered // first request holds the only slot
	go func() { answers <- srv.Serve(ctx, server.Request{}) }()
	for srv.Stats().QueueDepth == 0 { // second request parks in the queue
		gorun.Gosched()
	}

	drainErr := make(chan error, 1)
	go func() {
		_, err := srv.Drain(ctx, 0)
		drainErr <- err
	}()
	waitDraining(t, srv)

	// New arrivals shed while the backlog finishes.
	if ans := srv.Serve(ctx, server.Request{}); !errors.Is(ans.Err, server.ErrDraining) {
		t.Fatalf("arrival during drain got %v, want ErrDraining", ans.Err)
	}
	select {
	case err := <-drainErr:
		t.Fatalf("Drain returned (%v) with work still in flight", err)
	default:
	}

	close(eval.release)
	for i := 0; i < 2; i++ {
		if ans := <-answers; !ans.IsExact() || ans.Pfail != 0.25 {
			t.Fatalf("pre-drain request %d got %+v, want exact 0.25", i, ans)
		}
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	st := srv.Stats()
	if st.Inflight != 0 || st.QueueDepth != 0 {
		t.Fatalf("server not quiescent after drain: %+v", st)
	}
	if st.Exact != 2 || st.ShedDraining != 1 {
		t.Fatalf("stats %+v, want 2 exact and 1 drain shed", st)
	}
}

// TestDrainTimeoutOnFakeClock: a drain whose deadline elapses on the
// virtual clock reports ErrDrainTimeout while the straggler still runs,
// and a later drain completes cleanly once it finishes.
func TestDrainTimeoutOnFakeClock(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	eval := newGateEval()
	srv := server.New(eval, server.Config{Clock: clk})
	ctx := context.Background()

	done := make(chan socruntime.Answer, 1)
	go func() { done <- srv.Serve(ctx, server.Request{}) }()
	<-eval.entered

	drainErr := make(chan error, 1)
	go func() {
		_, err := srv.Drain(ctx, 5*time.Second)
		drainErr <- err
	}()
	waitDraining(t, srv)
	clk.WaitForTimers(1) // the drain deadline is the only pending timer
	clk.Advance(5 * time.Second)
	if err := <-drainErr; !errors.Is(err, server.ErrDrainTimeout) {
		t.Fatalf("Drain = %v, want ErrDrainTimeout", err)
	}

	close(eval.release)
	if ans := <-done; !ans.IsExact() {
		t.Fatalf("straggler got %+v, want exact", ans)
	}
	if _, err := srv.Drain(ctx, time.Second); err != nil {
		t.Fatalf("second Drain after quiescence: %v", err)
	}
}

// TestDrainCanceledContext: canceling the context abandons the wait (the
// server keeps draining) and reports the cancellation.
func TestDrainCanceledContext(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	eval := newGateEval()
	srv := server.New(eval, server.Config{Clock: clk})

	done := make(chan socruntime.Answer, 1)
	go func() { done <- srv.Serve(context.Background(), server.Request{}) }()
	<-eval.entered

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Drain(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain = %v, want context.Canceled", err)
	}
	if !srv.Draining() {
		t.Fatal("canceled Drain un-drained the server")
	}
	close(eval.release)
	<-done
}
