package server

import (
	"context"
	"fmt"
	gorun "runtime"
	"testing"
	"time"

	"socrel/internal/assembly"
	"socrel/internal/core"
	socruntime "socrel/internal/runtime"
)

// benchPoints is the number of distinct search points the Serve
// benchmarks cycle through, to vary the evaluation.
const benchPoints = 64

// compileRemote compiles the paper's remote assembly to closed forms,
// the artifact relserve and relfleet serve by default.
func compileRemote(tb testing.TB) *core.CompiledAssembly {
	tb.Helper()
	asm, err := assembly.RemoteAssembly(assembly.DefaultPaperParams())
	if err != nil {
		tb.Fatal(err)
	}
	ca, err := core.CompileParametric(asm, core.Options{}, core.ParametricOptions{}, "search")
	if err != nil {
		tb.Fatal(err)
	}
	return ca
}

// opaqueEval hides every optional method of the evaluator it wraps, so
// the server neither skips the deadline watcher for it nor answers its
// sheds Stale.
type opaqueEval struct{ ev Evaluator }

func (o opaqueEval) PfailCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	return o.ev.PfailCtx(ctx, service, params...)
}

func benchRequests() []Request {
	reqs := make([]Request, benchPoints)
	for i := range reqs {
		reqs[i] = Request{Params: []float64{1, float64(1024 + 64*i), 1}}
	}
	return reqs
}

// benchServe serves the benchmark's points through ev, each with the
// given deadline budget (0 for none).
func benchServe(b *testing.B, ev Evaluator, timeout time.Duration) {
	srv := New(ev, Config{Service: "search"})
	reqs := benchRequests()
	for i := range reqs {
		reqs[i].Timeout = timeout
	}
	ctx := context.Background()
	for _, r := range reqs { // warm the session pool
		srv.Serve(ctx, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ans := srv.Serve(ctx, reqs[i%benchPoints]); ans.Err != nil {
			b.Fatal(ans.Err)
		}
	}
}

// BenchmarkServeInline is one Serve of a closed-form point through an
// evaluator that reports Inline: the cost of admission, the limiter
// slot, the stats and the scope's last-exact record around a ~0.2 us
// evaluation.
func BenchmarkServeInline(b *testing.B) {
	benchServe(b, compileRemote(b), 0)
}

// BenchmarkServeOpaque is the same point through an evaluator that does
// not report Inline. With no deadline it takes the same path as
// BenchmarkServeInline, on the caller's goroutine under the request's
// own context, so the two differ only by the wrapper's indirect call.
func BenchmarkServeOpaque(b *testing.B) {
	benchServe(b, opaqueEval{compileRemote(b)}, 0)
}

// BenchmarkServeDeadline serves the same point with a one-second
// deadline. The inline case still evaluates under the request's own
// context; the opaque case starts the deadline watcher (a cancel
// context, a goroutine and a timer) around every evaluation. The gap
// between the two is what skipping the watcher for an Inline point
// saves.
func BenchmarkServeDeadline(b *testing.B) {
	b.Run("inline", func(b *testing.B) {
		benchServe(b, compileRemote(b), time.Second)
	})
	b.Run("opaque", func(b *testing.B) {
		benchServe(b, opaqueEval{compileRemote(b)}, time.Second)
	})
}

// BenchmarkServeQueued is one Serve that waits for a slot. The window
// is one slot wide and the benchmark holds that slot when it sends the
// request, so the request always queues. A helper goroutine frees the
// slot once it sees the request in the queue, and dispatch grants it to
// the request. ns/op covers the queue push, the wake-up across
// goroutines and the evaluation; allocs/op is the waiter and its
// one-slot channel, which allocates its buffer apart.
func BenchmarkServeQueued(b *testing.B) {
	srv := New(compileRemote(b), Config{
		Service: "search",
		Limiter: LimiterConfig{Initial: 1, Min: 1, Max: 1},
	})
	reqs := benchRequests()
	ctx := context.Background()
	for _, r := range reqs {
		srv.Serve(ctx, r)
	}
	held := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range held {
			for {
				srv.mu.Lock()
				if srv.queue.depth > 0 {
					srv.limiter.release()
					srv.dispatchLocked()
					srv.mu.Unlock()
					break
				}
				srv.mu.Unlock()
				gorun.Gosched()
			}
		}
	}()
	defer func() {
		close(held)
		<-done
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.mu.Lock()
		ok := srv.limiter.tryAcquire()
		srv.mu.Unlock()
		if !ok {
			b.Fatal("the benchmark could not take the only slot")
		}
		held <- struct{}{}
		if ans := srv.Serve(ctx, reqs[i%benchPoints]); ans.Err != nil {
			b.Fatal(ans.Err)
		}
	}
	b.StopTimer()
	if st := srv.Stats(); st.Inflight != 0 || st.QueueDepth != 0 {
		b.Fatalf("server not quiescent: %+v", st)
	}
}

// BenchmarkServeBatch is one ServeBatch through the compiled batch
// kernel at 64 and 256 points; ns/op covers the whole grid. Nothing the
// server does after the kernel is per point beyond writing the answer,
// so allocs/op is the same at both sizes.
func BenchmarkServeBatch(b *testing.B) {
	ca := compileRemote(b)
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("points=%d", n), func(b *testing.B) {
			srv := New(ca, Config{Service: "search"})
			req := BatchRequest{ParamSets: make([][]float64, n)}
			for i := range req.ParamSets {
				req.ParamSets[i] = []float64{1, float64(1024 + 16*i), 1}
			}
			ctx := context.Background()
			srv.ServeBatch(ctx, req)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.ServeBatch(ctx, req)
			}
		})
	}
}

// BenchmarkServeShed is one shed request on a draining closed-form
// server whose scope has an exact answer: the Stale answer is the closed
// form evaluated at the requested point, and every request asks at a
// point never asked before.
func BenchmarkServeShed(b *testing.B) {
	srv := New(compileRemote(b), Config{Service: "search"})
	ctx := context.Background()
	params := []float64{1, 1024, 1}
	if ans := srv.Serve(ctx, Request{Params: params}); !ans.IsExact() {
		b.Fatal(ans.Err)
	}
	if _, err := srv.Drain(ctx, time.Second); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		params[1] = 1025 + float64(i)
		if ans := srv.Serve(ctx, Request{Params: params}); ans.Kind != socruntime.Stale {
			b.Fatalf("shed answer %+v, want Stale", ans)
		}
	}
}
