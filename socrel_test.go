package socrel_test

// Tests of the paper's workflow through the public facade. Steps the
// facade does not export (the ADL codecs, the performance profile,
// state combination, the fixed-point policy) are driven through their
// internal packages.

import (
	"math"
	"testing"

	"socrel"
	"socrel/internal/adl"
	"socrel/internal/core"
	"socrel/internal/model"
	"socrel/internal/perf"
	"socrel/internal/sensitivity"
)

func TestQuickstartFlow(t *testing.T) {
	cpu := socrel.NewCPU("cpu1", 1e9, 1e-8)
	sorter := socrel.NewComposite("sorter", []string{"n"}, socrel.Attrs{"phi": 1e-9})
	work, err := sorter.Flow().AddState("work", socrel.AND, socrel.NoSharing)
	if err != nil {
		t.Fatal(err)
	}
	ops := socrel.MustParseExpr("n * log2(n)")
	work.AddRequest(socrel.Request{
		Role:     "cpu",
		Params:   []socrel.Expr{ops},
		Internal: socrel.SoftwareFailure(socrel.Var("phi"), ops),
	})
	if err := sorter.Flow().AddTransitionP(socrel.StartState, "work", 1); err != nil {
		t.Fatal(err)
	}
	if err := sorter.Flow().AddTransitionP("work", socrel.EndState, 1); err != nil {
		t.Fatal(err)
	}
	asm := socrel.NewAssembly("quickstart")
	asm.MustAddService(cpu)
	asm.MustAddService(sorter)
	asm.AddBinding("sorter", "cpu", "cpu1", "")
	if err := asm.Validate(); err != nil {
		t.Fatal(err)
	}
	ev := socrel.NewEvaluator(asm, socrel.Options{})
	rel, err := ev.Reliability("sorter", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(1 << 20)
	opsV := n * math.Log2(n)
	want := math.Pow(1-1e-9, opsV) * math.Exp(-1e-8*opsV/1e9)
	if math.Abs(rel-want) > 1e-12 {
		t.Errorf("reliability = %.12f, want %.12f", rel, want)
	}
}

func TestPaperAssembliesThroughFacade(t *testing.T) {
	p := socrel.DefaultPaperParams()
	local, err := socrel.LocalAssembly(p)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := socrel.RemoteAssembly(p)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := socrel.NewEvaluator(local, socrel.Options{}).Reliability("search", 1, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := socrel.NewEvaluator(remote, socrel.Options{}).Reliability("search", 1, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rl <= 0 || rl >= 1 || rr <= 0 || rr >= 1 {
		t.Errorf("reliabilities = %g, %g", rl, rr)
	}
}

func TestFacadeCompileParametric(t *testing.T) {
	asm, err := socrel.LocalAssembly(socrel.DefaultPaperParams())
	if err != nil {
		t.Fatal(err)
	}
	ca, err := socrel.CompileParametric(asm, socrel.Options{}, socrel.ParametricOptions{})
	if err != nil {
		t.Fatal(err)
	}
	form, ok := ca.ClosedForm("search")
	if !ok || form == "" {
		t.Fatalf("no closed form for search: %v", ca.ParametricFallbacks())
	}
	pf, err := ca.Pfail("search", 1, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := socrel.NewEvaluator(asm, socrel.Options{}).Pfail("search", 1, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if diff := pf - ref; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("parametric %g vs interpreted %g", pf, ref)
	}
	st := ca.ParametricStats()
	if st.Outputs == 0 || st.ParametricPoints != 1 || st.NumericPoints != 0 {
		t.Errorf("stats = %+v, want the point answered in closed form", st)
	}
	grads, err := socrel.Gradient(ca, "search", 1, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(grads) != 3 || grads[1] <= 0 {
		t.Errorf("gradient = %v, want dPfail/dlist > 0", grads)
	}
}

func TestFacadeSimulatorAgrees(t *testing.T) {
	p := socrel.DefaultPaperParams()
	p.Gamma = 1e-1
	asm, err := socrel.RemoteAssembly(p)
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := socrel.NewEvaluator(asm, socrel.Options{}).Reliability("search", 1, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	est, err := socrel.NewSimulator(asm, socrel.SimOptions{Seed: 9}).
		Estimate("search", 20000, 1, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Contains(analytic) {
		t.Errorf("analytic %g outside CI [%g, %g]", analytic, est.Lo, est.Hi)
	}
}

func TestFacadeADLRoundTrip(t *testing.T) {
	src := `
service cpu1 cpu {
    speed 1e9
    rate 1e-10
}
service app composite(n) {
    attr phi 1e-8
    state s and nosharing {
        call cpu1(n) internal 1 - (1 - phi)^n
    }
    transition Start -> s prob 1
    transition s -> End prob 1
}
assembly main {
    bind app.cpu1 -> cpu1
}
`
	doc, err := adl.ParseDSL(src)
	if err != nil {
		t.Fatal(err)
	}
	data, err := adl.MarshalJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := adl.UnmarshalJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	asm, err := doc2.BuildAssembly("main")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := socrel.NewEvaluator(asm, socrel.Options{}).Reliability("app", 1e6)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(1-1e-8, 1e6) * math.Exp(-1e-10*1e6/1e9)
	if math.Abs(rel-want) > 1e-12 {
		t.Errorf("reliability = %.12f, want %.12f", rel, want)
	}
}

func TestFacadePerfProfile(t *testing.T) {
	p := socrel.DefaultPaperParams()
	asm, err := socrel.LocalAssembly(p)
	if err != nil {
		t.Fatal(err)
	}
	prof := perf.New(asm)
	if err := prof.UseCanonicalCosts(asm.ServiceNames()); err != nil {
		t.Fatal(err)
	}
	et, err := prof.ExpectedTime("search", 1, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if et <= 0 {
		t.Errorf("expected time = %g", et)
	}
}

func TestFacadeRegistrySelection(t *testing.T) {
	p := socrel.DefaultPaperParams()
	local, err := socrel.LocalAssembly(p)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := socrel.RemoteAssembly(p)
	if err != nil {
		t.Fatal(err)
	}
	asm := local.Clone("combined")
	for _, name := range []string{"sort2", "rpc", "cpu2", "net12"} {
		svc, err := remote.ServiceByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := asm.AddService(svc); err != nil {
			t.Fatal(err)
		}
	}
	asm.AddBinding("sort2", "cpu", "cpu2", "")
	asm.AddBinding("rpc", socrel.RoleClientCPU, "cpu1", "")
	asm.AddBinding("rpc", socrel.RoleServerCPU, "cpu2", "")
	asm.AddBinding("rpc", socrel.RoleNet, "net12", "")

	sel, err := socrel.SelectBinding(asm, "search", "sort",
		[]socrel.Candidate{
			{Provider: "sort1", Connector: "lpc"},
			{Provider: "sort2", Connector: "rpc"},
		},
		socrel.Options{}, "search", 1, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Ranking) != 2 {
		t.Fatalf("ranking = %+v", sel.Ranking)
	}
	if sel.Reliability < sel.Ranking[1].Reliability {
		t.Error("winner is not the max")
	}
}

func TestFacadeTraceEstimation(t *testing.T) {
	traces := [][]string{
		{"Start", "a", "End"},
		{"Start", "a", "End"},
		{"Start", "b", "End"},
	}
	chain, err := socrel.EstimateChainFromTraces(traces)
	if err != nil {
		t.Fatal(err)
	}
	if got := chain.Transition("Start", "a"); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("P(Start->a) = %g", got)
	}
}

func TestFacadeSweepAndCrossover(t *testing.T) {
	xs, err := socrel.PowersOfTwo(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sensitivity.Sweep("id", xs, func(x float64) (float64, error) { return x, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 4 || s.Points[3].Y != 16 {
		t.Errorf("series = %+v", s)
	}
	x, err := socrel.Crossover(
		func(x float64) (float64, error) { return x, nil },
		func(x float64) (float64, error) { return 8, nil },
		1, 16, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-8) > 1e-6 {
		t.Errorf("crossover = %g", x)
	}
}

func TestFacadeCombineState(t *testing.T) {
	f, err := model.CombineState(socrel.OR, socrel.Sharing, 0, []model.RequestFailure{
		{Int: 0.1, Ext: 0.2}, {Int: 0.1, Ext: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - 0.8*0.8*(1-0.01)
	if math.Abs(f-want) > 1e-12 {
		t.Errorf("f = %g, want %g", f, want)
	}
}

func TestFacadeFixedPoint(t *testing.T) {
	asm := socrel.NewAssembly("retry")
	asm.MustAddService(socrel.NewConstant("leaf", 0.1))
	c := socrel.NewComposite("a", nil, nil)
	st, err := c.Flow().AddState("work", socrel.AND, socrel.NoSharing)
	if err != nil {
		t.Fatal(err)
	}
	st.AddRequest(socrel.Request{Role: "leaf"})
	retry, err := c.Flow().AddState("retry", socrel.AND, socrel.NoSharing)
	if err != nil {
		t.Fatal(err)
	}
	retry.AddRequest(socrel.Request{Role: "a"})
	for _, e := range []struct {
		from, to string
		p        float64
	}{
		{socrel.StartState, "work", 1},
		{"work", "retry", 0.5},
		{"work", socrel.EndState, 0.5},
		{"retry", socrel.EndState, 1},
	} {
		if err := c.Flow().AddTransitionP(e.from, e.to, e.p); err != nil {
			t.Fatal(err)
		}
	}
	asm.MustAddService(c)
	ev := socrel.NewEvaluator(asm, socrel.Options{Cycles: core.CycleFixedPoint})
	got, err := ev.Pfail("a")
	if err != nil {
		t.Fatal(err)
	}
	want := 0.1 / (1 - 0.5*0.9)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Pfail = %g, want %g", got, want)
	}
}
