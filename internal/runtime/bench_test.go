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
	asm, err := assembly.RemoteAssembly(assembly.DefaultPaperParams())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	sup, err := rt.NewSupervisor(ctx, rt.SupervisorConfig{Clock: rt.NewFakeClock(t0)}, asm,
		"search", "sort", []registry.Candidate{{Provider: "sort2", Connector: "rpc"}},
		core.Options{}, "search", 1, 4096, 1)
	if err != nil {
		b.Fatal(err)
	}
	rates := [2]float64{5e-3, 2e-2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sup.Repredict(ctx, "net12", "beta", rates[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}
