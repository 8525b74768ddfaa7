package socrel

// The benchmark harness: one bench per reproduced table/figure (see the
// experiment index in DESIGN.md), plus micro-benchmarks of the engine's
// hot paths. Run everything with:
//
//	go test -bench=. -benchmem
//
// The per-experiment benches time the full regeneration of each table, so
// their output doubles as a wall-clock budget for cmd/experiments.

import (
	"strconv"
	"sync/atomic"
	"testing"

	"socrel/internal/assembly"
	"socrel/internal/core"
	"socrel/internal/experiments"
	"socrel/internal/expr"
	"socrel/internal/model"
	"socrel/internal/sim"
)

// benchTable runs one experiment generator per iteration.
func benchTable(b *testing.B, id string) {
	b.Helper()
	g, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := g.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure6 regenerates the paper's Figure 6 (6 curves x 17 list
// sizes, engine-evaluated).
func BenchmarkFigure6(b *testing.B) { benchTable(b, "F6") }

// BenchmarkClosedFormAgreement regenerates T1 (engine vs equations 15-22).
func BenchmarkClosedFormAgreement(b *testing.B) { benchTable(b, "T1") }

// BenchmarkANDSharing regenerates T2 (AND sharing invariance).
func BenchmarkANDSharing(b *testing.B) { benchTable(b, "T2") }

// BenchmarkORSharing regenerates T3 (OR sharing divergence).
func BenchmarkORSharing(b *testing.B) { benchTable(b, "T3") }

// BenchmarkMonteCarloValidation regenerates T4 (analytic vs simulation).
func BenchmarkMonteCarloValidation(b *testing.B) { benchTable(b, "T4") }

// BenchmarkBaselineAblation regenerates T5 (connector-blind baselines).
func BenchmarkBaselineAblation(b *testing.B) { benchTable(b, "T5") }

// BenchmarkEngineScalability regenerates T6 (synthetic layered assemblies).
func BenchmarkEngineScalability(b *testing.B) { benchTable(b, "T6") }

// BenchmarkPerfExtension regenerates T7 (expected-time mirror of Figure 6).
func BenchmarkPerfExtension(b *testing.B) { benchTable(b, "T7") }

// BenchmarkKofN regenerates T8 (k-of-n completion).
func BenchmarkKofN(b *testing.B) { benchTable(b, "T8") }

// BenchmarkFixedPoint regenerates T9 (recursive assemblies).
func BenchmarkFixedPoint(b *testing.B) { benchTable(b, "T9") }

// BenchmarkHMMFit regenerates T10 (usage-profile estimation).
func BenchmarkHMMFit(b *testing.B) { benchTable(b, "T10") }

// BenchmarkSelection regenerates T11 (reliability-driven selection).
func BenchmarkSelection(b *testing.B) { benchTable(b, "T11") }

// --- Micro-benchmarks of the hot paths. ---

// BenchmarkEvaluateLocal times one cold evaluation of the paper's local
// assembly (fresh evaluator per iteration: no memo reuse).
func BenchmarkEvaluateLocal(b *testing.B) {
	p := assembly.DefaultPaperParams()
	asm, err := assembly.LocalAssembly(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.New(asm, core.Options{}).Pfail("search", 1, 4096, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateRemote times one cold evaluation of the remote assembly
// (deeper: RPC connector flow plus network).
func BenchmarkEvaluateRemote(b *testing.B) {
	p := assembly.DefaultPaperParams()
	asm, err := assembly.RemoteAssembly(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.New(asm, core.Options{}).Pfail("search", 1, 4096, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateMemoized times repeat evaluations against a warm
// evaluator (the service-selection inner loop).
func BenchmarkEvaluateMemoized(b *testing.B) {
	p := assembly.DefaultPaperParams()
	asm, err := assembly.RemoteAssembly(p)
	if err != nil {
		b.Fatal(err)
	}
	ev := core.New(asm, core.Options{})
	if _, err := ev.Pfail("search", 1, 4096, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Pfail("search", 1, 4096, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyntheticDepth times cold evaluation across recursion depths.
func BenchmarkSyntheticDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		asm, root, err := experiments.SyntheticAssembly(depth, 2, 20)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(rune('0'+depth)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.New(asm, core.Options{}).Pfail(root, 1e6); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatedInvocation times one Monte Carlo invocation of the
// remote assembly.
func BenchmarkSimulatedInvocation(b *testing.B) {
	p := assembly.DefaultPaperParams()
	asm, err := assembly.RemoteAssembly(p)
	if err != nil {
		b.Fatal(err)
	}
	s := sim.New(asm, sim.Options{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Invoke("search", 1, 4096, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCombineState times the per-state failure combination (the
// innermost arithmetic of the engine).
func BenchmarkCombineState(b *testing.B) {
	reqs := []model.RequestFailure{
		{Int: 0.01, Ext: 0.1}, {Int: 0.02, Ext: 0.2}, {Int: 0.03, Ext: 0.3},
		{Int: 0.01, Ext: 0.1}, {Int: 0.02, Ext: 0.2},
	}
	for _, tc := range []struct {
		name string
		comp model.Completion
		dep  model.Dependency
		k    int
	}{
		{"AND-NoSharing", model.AND, model.NoSharing, 0},
		{"OR-Sharing", model.OR, model.Sharing, 0},
		{"3ofN-NoSharing", model.KOfN, model.NoSharing, 3},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := model.CombineState(tc.comp, tc.dep, tc.k, reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkErrorPropagation regenerates T12 (releasing fail-stop).
func BenchmarkErrorPropagation(b *testing.B) { benchTable(b, "T12") }

// BenchmarkFaultTolerantConnectors regenerates T13 (connector families).
func BenchmarkFaultTolerantConnectors(b *testing.B) { benchTable(b, "T13") }

// BenchmarkExploration regenerates T14 (design-space exploration).
func BenchmarkExploration(b *testing.B) { benchTable(b, "T14") }

// BenchmarkUncertainty regenerates T15 (uncertainty propagation).
func BenchmarkUncertainty(b *testing.B) { benchTable(b, "T15") }

// BenchmarkResponseTimes regenerates T16 (response-time distribution).
func BenchmarkResponseTimes(b *testing.B) { benchTable(b, "T16") }

// --- Compiled-engine benchmarks (compile/execute split). ---

// compiledPaperPair compiles the paper's two assemblies once.
func compiledPaperPair(b *testing.B) [2]*core.CompiledAssembly {
	b.Helper()
	p := assembly.DefaultPaperParams()
	local, err := assembly.LocalAssembly(p)
	if err != nil {
		b.Fatal(err)
	}
	remote, err := assembly.RemoteAssembly(p)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := core.Compile(local, core.Options{}, "search")
	if err != nil {
		b.Fatal(err)
	}
	cr, err := core.Compile(remote, core.Options{}, "search")
	if err != nil {
		b.Fatal(err)
	}
	return [2]*core.CompiledAssembly{cl, cr}
}

// BenchmarkCompiledSerial times one compiled evaluation per iteration with
// a distinct parameter set each time; ns/op is directly comparable to the
// seed's per-point Figure 6 cost.
func BenchmarkCompiledSerial(b *testing.B) {
	cas := compiledPaperPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ca := cas[i%2]
		if _, err := ca.Pfail("search", 1, float64(16+i), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledSharedDAG times one compiled evaluation of the layered
// synthetic assembly, where each level invokes the one below 40 times
// with the same parameter. Sharing within the evaluation solves each of
// the depth composites once; without it the work grows as 40^depth.
func BenchmarkCompiledSharedDAG(b *testing.B) {
	for _, depth := range []int{4, 8} {
		asm, root, err := experiments.SyntheticAssembly(depth, 2, 20)
		if err != nil {
			b.Fatal(err)
		}
		ca, err := core.Compile(asm, core.Options{}, root)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("depth"+strconv.Itoa(depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ca.Pfail(root, float64(16+i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompiledParallel drives one immutable CompiledAssembly from all
// GOMAXPROCS goroutines (distinct parameters per evaluation).
func BenchmarkCompiledParallel(b *testing.B) {
	cas := compiledPaperPair(b)
	var ctr atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := ctr.Add(1)
			ca := cas[i%2]
			if _, err := ca.Pfail("search", 1, float64(16+i), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompiledBatch times PfailBatch over the Figure 6 list sizes.
func BenchmarkCompiledBatch(b *testing.B) {
	benchFigure6Batch(b, compiledPaperPair(b)[1])
}

// benchFigure6Batch times PfailBatch on the remote assembly's search
// service over the 17 Figure 6 list sizes. The parameter sets are built
// once and perturbed in place each iteration, so allocs/op counts the
// kernel's allocations only.
func benchFigure6Batch(b *testing.B, ca *core.CompiledAssembly) {
	sets := make([][]float64, 17)
	for j := range sets {
		sets[j] = []float64{1, 0, 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range sets {
			sets[j][1] = float64(int(1)<<(j+4)) + float64(i)/1024
		}
		if _, err := ca.PfailBatch("search", sets); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sets)), "ns/point")
}

// BenchmarkCompile times the one-time compile of the paper's remote
// assembly, apart from any per-point cost: numeric builds the chain
// skeletons, parametric also solves each chain symbolically into a
// closed-form program. Its ratio to the per-point benchmarks is the
// number of points a compile has to serve to pay for itself.
func BenchmarkCompile(b *testing.B) {
	remote, err := assembly.RemoteAssembly(assembly.DefaultPaperParams())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("numeric", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Compile(remote, core.Options{}, "search"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parametric", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ca, err := core.CompileParametric(remote, core.Options{}, core.ParametricOptions{}, "search")
			if err != nil {
				b.Fatal(err)
			}
			if ca.ParametricStats().Outputs == 0 {
				b.Fatalf("remote assembly has no closed form: %v", ca.ParametricFallbacks())
			}
		}
	})
}

// --- Parametric-engine benchmarks (symbolic solve, closed-form eval). ---

// parametricPaperPair compiles the paper's two assemblies with the
// symbolic chain solver, failing if either root fell back to numeric.
func parametricPaperPair(b *testing.B) [2]*core.CompiledAssembly {
	b.Helper()
	p := assembly.DefaultPaperParams()
	local, err := assembly.LocalAssembly(p)
	if err != nil {
		b.Fatal(err)
	}
	remote, err := assembly.RemoteAssembly(p)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := core.CompileParametric(local, core.Options{}, core.ParametricOptions{}, "search")
	if err != nil {
		b.Fatal(err)
	}
	cr, err := core.CompileParametric(remote, core.Options{}, core.ParametricOptions{}, "search")
	if err != nil {
		b.Fatal(err)
	}
	for _, ca := range []*core.CompiledAssembly{cl, cr} {
		if st := ca.ParametricStats(); st.Outputs == 0 {
			b.Fatalf("paper assembly has no closed form: %v", ca.ParametricFallbacks())
		}
	}
	return [2]*core.CompiledAssembly{cl, cr}
}

// BenchmarkParametricSerial is BenchmarkCompiledSerial through a
// parametric compile: each point is one closed-form program evaluation
// instead of a numeric chain build + solve. The steady state must stay
// at 0 allocs/op (asserted by the CI bench smoke).
func BenchmarkParametricSerial(b *testing.B) {
	cas := parametricPaperPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ca := cas[i%2]
		if _, err := ca.Pfail("search", 1, float64(16+i), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParametricBatch is BenchmarkCompiledBatch (the Figure 6 grid,
// perturbed every iteration) through a parametric compile; its ns/point against
// BenchmarkCompiledBatch's is the headline parametric speedup recorded
// in BENCH_core.json.
func BenchmarkParametricBatch(b *testing.B) {
	benchFigure6Batch(b, parametricPaperPair(b)[1])
}

// BenchmarkParametricGradient times the exact symbolic gradient (three
// compiled partial-derivative programs per call); the finite-difference
// alternative costs 2 numeric solves per parameter.
func BenchmarkParametricGradient(b *testing.B) {
	cas := parametricPaperPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cas[1].Sensitivities("search", 1, float64(16+i), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDAGFastPath times the structure-aware solver's DAG forward
// substitution on the serial workload: the paper's remote assembly, and a
// 192-state acyclic flow where the solve is one O(E) pass instead of a
// factorization of the 193x193 transient system.
func BenchmarkDAGFastPath(b *testing.B) {
	remote, err := assembly.RemoteAssembly(assembly.DefaultPaperParams())
	if err != nil {
		b.Fatal(err)
	}
	chain, chainRoot, err := experiments.SyntheticAssembly(1, 1, 192)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		asm    model.Resolver
		root   string
		params []float64 // params[vary] is set to a fresh value per point
		vary   int
	}{
		{"structured", remote, "search", []float64{1, 0, 1}, 1},
		{"chain192-structured", chain, chainRoot, []float64{0}, 0},
	} {
		ca, err := core.Compile(tc.asm, core.Options{}, tc.root)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tc.params[tc.vary] = float64(16 + i)
				if _, err := ca.Pfail(tc.root, tc.params...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExprProgram compares the compiled slot-program VM against AST
// interpretation on the paper's retry failure law.
func BenchmarkExprProgram(b *testing.B) {
	e := expr.MustParse("1 - (1 - phi) ^ (n * log2(n))")
	attrs := expr.Env{"phi": 1e-6}
	b.Run("program", func(b *testing.B) {
		prog := expr.MustCompileProgram(e, []string{"n"}, attrs)
		slots := []float64{4096}
		stack := make([]float64, prog.MaxStack())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			slots[0] = float64(16 + i%4096)
			if _, err := prog.Eval(slots, stack); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ast", func(b *testing.B) {
		env := expr.Env{"phi": 1e-6, "n": 4096}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			env["n"] = float64(16 + i%4096)
			if _, err := e.Eval(env); err != nil {
				b.Fatal(err)
			}
		}
	})
}
