package server

import (
	"context"
	"errors"
	"math"
	"math/rand"
	gorun "runtime"
	"testing"
	"time"

	socruntime "socrel/internal/runtime"
)

// TestStaleOracleMultiPoint is the multi-point oracle for the Stale rung.
// A closed-form server holds one exact answer per scope, at different
// times, and then sheds requests at 1000 seeded random points, single
// and batched, first by a 1 ns budget and then by draining. Every Stale
// answer must be the closed form at its own point, bit for bit, dated by
// its scope's last exact answer; a scope with no exact answer must get
// Unavailable.
func TestStaleOracleMultiPoint(t *testing.T) {
	ca := compileRemote(t)
	clock := socruntime.NewFakeClock(time.Unix(1000, 0))
	srv := New(ca, Config{Service: "search", Clock: clock})
	ctx := context.Background()

	// One exact answer per scope, at distinct times; scope "cold" never
	// gets one.
	lastExact := map[string]time.Time{}
	for _, scope := range []string{"a", "b"} {
		clock.Advance(time.Second)
		if ans := srv.Serve(ctx, Request{Scope: scope, Params: []float64{1, 4096, 1}}); !ans.IsExact() {
			t.Fatalf("scope %s seed: %+v", scope, ans)
		}
		lastExact[scope] = clock.Now()
	}
	clock.Advance(time.Minute)
	scopes := []string{"a", "b", "cold"}

	rng := rand.New(rand.NewSource(20))
	point := func() []float64 {
		return []float64{float64(1 + rng.Intn(4)), 16 + rng.Float64()*(1<<20), float64(1 + rng.Intn(3))}
	}
	var stale int
	check := func(what, scope string, params []float64, ans socruntime.Answer) {
		t.Helper()
		if (ans.Kind == socruntime.Exact) != (ans.Err == nil) || !errors.Is(ans.Err, ErrOverloaded) {
			t.Fatalf("%s: %+v, want a shed answer", what, ans)
		}
		asOf, ok := lastExact[scope]
		if !ok {
			if ans.Kind != socruntime.Unavailable {
				t.Fatalf("%s: scope %s has no exact answer, got %+v, want Unavailable", what, scope, ans)
			}
			return
		}
		want, err := ca.PfailCtx(ctx, "search", params...)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Kind != socruntime.Stale || math.Float64bits(ans.Pfail) != math.Float64bits(want) {
			t.Fatalf("%s: scope %s at %v: got %+v, want Stale %v", what, scope, params, ans, want)
		}
		if !ans.AsOf.Equal(asOf) || ans.Age != clock.Now().Sub(asOf) {
			t.Fatalf("%s: scope %s: AsOf %v Age %v, want %v and %v", what, scope, ans.AsOf, ans.Age, asOf, clock.Now().Sub(asOf))
		}
		stale++
	}

	const points, grid = 1000, 10
	round := func(timeout time.Duration) {
		for i := 0; i < points; i++ {
			scope := scopes[rng.Intn(len(scopes))]
			params := point()
			check("single", scope, params, srv.Serve(ctx, Request{Scope: scope, Params: params, Timeout: timeout}))
		}
		for i := 0; i < points/grid; i++ {
			scope := scopes[rng.Intn(len(scopes))]
			sets := make([][]float64, grid)
			for j := range sets {
				sets[j] = point()
			}
			out := srv.ServeBatch(ctx, BatchRequest{Scope: scope, ParamSets: sets, Timeout: timeout})
			for j, ans := range out {
				check("batch", scope, sets[j], ans)
			}
		}
	}
	round(time.Nanosecond)
	if st := srv.Stats(); st.ShedDeadline != points+points/grid {
		t.Fatalf("ShedDeadline = %d, want every request shed", st.ShedDeadline)
	}
	if _, err := srv.Drain(ctx, time.Second); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute)
	round(0)
	st := srv.Stats()
	if st.ShedDraining != points+points/grid {
		t.Fatalf("ShedDraining = %d, want every request shed", st.ShedDraining)
	}
	if st.Exact != 2 || st.Stale != uint64(stale) || st.Stale+st.Unavailable != 4*points {
		t.Fatalf("stats = %+v, want 2 exact and %d stale of %d shed points", st, stale, 4*points)
	}
	if stale == 0 || st.Unavailable == 0 {
		t.Fatalf("%d stale and %d unavailable: the rounds missed a rung", stale, st.Unavailable)
	}
}

// TestStaleIgnoresRequestCancellation: a request canceled while queued is
// answered Stale even though its context is done, because the Stale
// evaluation runs detached from the request's cancellation.
func TestStaleIgnoresRequestCancellation(t *testing.T) {
	ca := compileLoop(t, 0)
	clock := socruntime.NewFakeClock(time.Unix(1000, 0))
	srv := New(ca, Config{
		Service:       "loop",
		Clock:         clock,
		QueueCapacity: 4,
		Limiter:       LimiterConfig{Initial: 1, Min: 1, Max: 1},
	})
	ctx := context.Background()
	if ans := srv.Serve(ctx, Request{Params: []float64{64}}); !ans.IsExact() {
		t.Fatalf("seed: %+v", ans)
	}
	asOf := clock.Now()

	// Hold the only slot so the next request queues.
	srv.mu.Lock()
	if !srv.limiter.tryAcquire() {
		srv.mu.Unlock()
		t.Fatal("could not take the only slot")
	}
	srv.mu.Unlock()
	cctx, cancel := context.WithCancel(ctx)
	done := make(chan socruntime.Answer)
	go func() { done <- srv.Serve(cctx, Request{Params: []float64{96}}) }()
	for i := 0; srv.Stats().QueueDepth == 0; i++ {
		if i > 1e7 {
			t.Fatal("the request never queued")
		}
		gorun.Gosched()
	}
	cancel()
	ans := <-done
	want, err := ca.PfailCtx(ctx, "loop", 96)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Kind != socruntime.Stale || ans.Pfail != want || !ans.AsOf.Equal(asOf) || !errors.Is(ans.Err, context.Canceled) {
		t.Fatalf("canceled while queued: %+v, want Stale %v as of %v wrapping context.Canceled", ans, want, asOf)
	}
	if st := srv.Stats(); st.CanceledWaiting != 1 || st.Stale != 1 {
		t.Fatalf("stats = %+v", st)
	}
	srv.mu.Lock()
	srv.limiter.release()
	srv.dispatchLocked()
	srv.mu.Unlock()
}
