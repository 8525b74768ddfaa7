package runtime_test

import (
	"context"
	"testing"

	"socrel/internal/assembly"
	"socrel/internal/core"
	"socrel/internal/registry"
	rt "socrel/internal/runtime"
)

// BenchmarkRepredict is one drift episode's re-prediction on the paper's
// remote assembly: net12's failure rate alternates between two values,
// and each call swaps the attribute and re-evaluates the search service.
func BenchmarkRepredict(b *testing.B) {
	ctx := context.Background()
	sup := newBenchSupervisor(b)
	rates := [2]float64{5e-3, 2e-2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sup.Repredict(ctx, "net12", "beta", rates[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepredictThenPfail is BenchmarkRepredict followed by a read of
// the live prediction: the Pfail is the re-predicted evaluator's second
// call at the same point, so it costs a memo lookup, not a compile.
func BenchmarkRepredictThenPfail(b *testing.B) {
	ctx := context.Background()
	sup := newBenchSupervisor(b)
	rates := [2]float64{5e-3, 2e-2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sup.Repredict(ctx, "net12", "beta", rates[i%2]); err != nil {
			b.Fatal(err)
		}
		if ans := sup.Pfail(ctx); ans.Kind != rt.Exact {
			b.Fatalf("Pfail answered %v: %v", ans.Kind, ans.Err)
		}
	}
}

// newBenchSupervisor supervises search(1, 4096, 1) on the paper's remote
// assembly, with sort2 over rpc as sort's backup.
func newBenchSupervisor(b *testing.B) *rt.Supervisor {
	asm, err := assembly.RemoteAssembly(assembly.DefaultPaperParams())
	if err != nil {
		b.Fatal(err)
	}
	sup, err := rt.NewSupervisor(context.Background(), rt.SupervisorConfig{Clock: rt.NewFakeClock(t0)}, asm,
		"search", "sort", []registry.Candidate{{Provider: "sort2", Connector: "rpc"}},
		core.Options{}, "search", 1, 4096, 1)
	if err != nil {
		b.Fatal(err)
	}
	return sup
}
