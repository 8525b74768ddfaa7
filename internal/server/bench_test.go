package server

import (
	"context"
	"fmt"
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
// the server takes the goroutine path.
type opaqueEval struct{ ev Evaluator }

func (o opaqueEval) PfailCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	return o.ev.PfailCtx(ctx, service, params...)
}

func benchServe(b *testing.B, ev Evaluator, hedge HedgeConfig) {
	srv := New(ev, Config{Service: "search", Hedge: hedge})
	reqs := make([]Request, benchPoints)
	for i := range reqs {
		reqs[i] = Request{Params: []float64{1, float64(1024 + 64*i), 1}}
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

// BenchmarkServeInline is one Serve of a closed-form point on the
// inline path, with the default (hedging-on) configuration: the cost of
// admission, the limiter slot, the stats and the scope's last-exact
// record around a ~0.2 us evaluation.
func BenchmarkServeInline(b *testing.B) {
	benchServe(b, compileRemote(b), HedgeConfig{})
}

// BenchmarkServeGoroutine is the same point through an evaluator that
// does not opt in: an evaluation goroutine, a results channel and a
// cancel context per request, plus the hedge timer when hedging is on.
func BenchmarkServeGoroutine(b *testing.B) {
	ca := compileRemote(b)
	b.Run("hedge=on", func(b *testing.B) { benchServe(b, opaqueEval{ca}, HedgeConfig{}) })
	b.Run("hedge=off", func(b *testing.B) { benchServe(b, opaqueEval{ca}, HedgeConfig{Disabled: true}) })
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

// BenchmarkLatencyDigest is one observe plus one p95 read on a full
// 128-sample window: what every completed request and every hedge
// decision pay.
func BenchmarkLatencyDigest(b *testing.B) {
	d := newLatencyDigest(time.Millisecond, 0.2, 0)
	for i := 0; i < 256; i++ {
		d.observe(time.Duration(i%97) * time.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink time.Duration
	for i := 0; i < b.N; i++ {
		d.observe(time.Duration(i%97) * time.Microsecond)
		sink += d.p95()
	}
	_ = sink
}
