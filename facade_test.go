package socrel_test

// Workflow checks that reach past the facade: the extension subsystems
// (connectors, error propagation, DOT export, design-space exploration,
// the serving tier, the fleet and online estimation) are driven through
// their internal packages, next to the facade names that build the
// assemblies they run on.

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"socrel"
	"socrel/internal/cluster"
	"socrel/internal/core"
	"socrel/internal/dot"
	"socrel/internal/estimate"
	"socrel/internal/expr"
	"socrel/internal/faultinject"
	"socrel/internal/model"
	"socrel/internal/monitor"
	"socrel/internal/perf"
	"socrel/internal/propagation"
	"socrel/internal/registry"
	socruntime "socrel/internal/runtime"
	"socrel/internal/sensitivity"
	"socrel/internal/server"
)

func TestFacadeConnectors(t *testing.T) {
	retry, err := model.NewRetry("r", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := retry.Roles(); len(got) != 1 || got[0] != model.RoleTransport {
		t.Errorf("retry roles = %v", got)
	}
	rep, err := model.NewKOfNTransport("rep", 3, 2, socrel.Sharing)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Flow().State("deliver").K != 2 {
		t.Error("k-of-n threshold lost")
	}
	q, err := model.NewQueue("q", 10, 270)
	if err != nil {
		t.Fatal(err)
	}
	roles := q.Roles()
	found := map[string]bool{}
	for _, r := range roles {
		found[r] = true
	}
	for _, want := range []string{model.RoleBrokerCPU, model.RoleNet1, model.RoleNet2} {
		if !found[want] {
			t.Errorf("queue missing role %q (has %v)", want, roles)
		}
	}
	lpc, err := model.NewLPC("l", 100)
	if err != nil {
		t.Fatal(err)
	}
	if lpc.Name() != "l" {
		t.Error("lpc name")
	}
}

func TestFacadePropagation(t *testing.T) {
	flow := socrel.NewMarkovChain()
	for _, tr := range []struct{ from, to string }{
		{socrel.StartState, "s"}, {"s", socrel.EndState},
	} {
		if err := flow.SetTransition(tr.from, tr.to, 1); err != nil {
			t.Fatal(err)
		}
	}
	a := propagation.New(flow)
	if err := a.SetBehavior("s", propagation.Behavior{PIntro: 0.25}); err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PErroneous-0.25) > 1e-12 {
		t.Errorf("PErroneous = %g", res.PErroneous)
	}

	// The composite bridge through the facade.
	p := socrel.DefaultPaperParams()
	asm, err := socrel.LocalAssembly(p)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := asm.ServiceByName("search")
	if err != nil {
		t.Fatal(err)
	}
	comp, ok := svc.(*model.Composite)
	if !ok {
		t.Fatal("search is not a composite")
	}
	pa, err := propagation.FromComposite(asm, comp, []float64{1, 256, 1}, socrel.Options{},
		map[string]propagation.Behavior{"sort": {PIntro: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := pa.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res2.PErroneous <= 0 {
		t.Error("expected erroneous mass")
	}
	if res2.Reliability() != res2.PCorrect {
		t.Error("Reliability() should equal PCorrect")
	}
}

func TestFacadeMonitorVerdicts(t *testing.T) {
	m, err := socrel.NewMonitor(socrel.MonitorConfig{Predicted: 0.9, Degraded: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if m.SPRT() != socrel.VerdictUndecided {
		t.Error("fresh monitor should be undecided")
	}
	for i := 0; i < 100; i++ {
		m.Record(true)
	}
	if m.SPRT() != monitor.Meeting {
		t.Errorf("verdict = %v", m.SPRT())
	}
	if m.IntervalCheck(1.96, 10) != monitor.Meeting {
		t.Errorf("interval verdict = %v", m.IntervalCheck(1.96, 10))
	}
}

func TestFacadeDOT(t *testing.T) {
	p := socrel.DefaultPaperParams()
	asm, err := socrel.RemoteAssembly(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.Assembly(asm), "digraph") {
		t.Error("AssemblyDOT")
	}
	svc, err := asm.ServiceByName("search")
	if err != nil {
		t.Fatal(err)
	}
	comp := svc.(*model.Composite)
	if !strings.Contains(dot.Flow(comp), "call sort(list)") {
		t.Error("FlowDOT")
	}
	s, err := dot.FlowWithFailures(asm, comp, []float64{1, 256, 1}, socrel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "Fail") {
		t.Error("FlowWithFailuresDOT")
	}
}

func TestFacadeExploreAndPareto(t *testing.T) {
	asm := socrel.NewAssembly("f")
	asm.MustAddService(socrel.NewCPU("fast", 1e9, 1e-3))
	asm.MustAddService(socrel.NewCPU("safe", 1e8, 1e-5))
	app := socrel.NewComposite("app", nil, nil)
	st, err := app.Flow().AddState("s", socrel.AND, socrel.NoSharing)
	if err != nil {
		t.Fatal(err)
	}
	st.AddRequest(socrel.Request{Role: "node", Params: []socrel.Expr{socrel.Num(1e8)}})
	if err := app.Flow().AddTransitionP(socrel.StartState, "s", 1); err != nil {
		t.Fatal(err)
	}
	if err := app.Flow().AddTransitionP("s", socrel.EndState, 1); err != nil {
		t.Fatal(err)
	}
	asm.MustAddService(app)

	configs, err := registry.Explore(asm,
		[]registry.Choice{{Caller: "app", Role: "node",
			Candidates: []socrel.Candidate{{Provider: "fast"}, {Provider: "safe"}}}},
		registry.ExploreOptions{WithTime: true}, "app")
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 2 {
		t.Fatalf("configs = %+v", configs)
	}
	front := registry.ParetoFront(configs)
	if len(front) != 2 { // fast is faster, safe is safer: both survive
		t.Errorf("front = %+v", front)
	}
}

func TestFacadeElasticities(t *testing.T) {
	f := func(p map[string]float64) (float64, error) { return p["x"] * p["x"], nil }
	els, err := sensitivity.Elasticities(f, map[string]float64{"x": 3}, []string{"x"}, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if len(els) != 1 || math.Abs(els[0].Value-2) > 1e-6 {
		t.Errorf("elasticities = %+v", els)
	}
}

func TestFacadeRegistry(t *testing.T) {
	r := socrel.NewRegistry()
	if err := r.Publish(model.NewPerfect("svc"), "desc", "tag"); err != nil {
		t.Fatal(err)
	}
	if got := r.Discover("tag"); len(got) != 1 {
		t.Errorf("Discover = %v", got)
	}
}

func TestFacadeSimpleConstructors(t *testing.T) {
	if socrel.NewNetwork("n", 1e6, 1e-3).Name() != "n" {
		t.Error("NewNetwork")
	}
	if socrel.NewConstant("c", 0.5).Name() != "c" {
		t.Error("NewConstant")
	}
	s := model.NewSimple("s", []string{"x"}, socrel.Attrs{"a": 1}, socrel.MustParseExpr("x * a"))
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
	v, err := socrel.MustParseExpr("1 + 2").Eval(expr.Env{})
	if err != nil || v != 3 {
		t.Errorf("MustParseExpr eval = %g, %v", v, err)
	}
	if socrel.Var("x") == nil || socrel.Num(1) == nil {
		t.Error("expression constructors")
	}
}

func TestFacadeSelfHealingRuntime(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))

	p := socrel.DefaultPaperParams()
	asm, err := socrel.LocalAssembly(p)
	if err != nil {
		t.Fatal(err)
	}
	tracker := socruntime.NewHealthTracker(socrel.MonitorConfig{}, clk)
	cands := []socrel.Candidate{{Provider: "sort1", Connector: "lpc"}}
	sel, err := socruntime.SelectHealthyBinding(context.Background(), tracker, asm,
		"search", "sort", cands, socrel.Options{}, "search", 1, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Candidate.Provider != "sort1" {
		t.Errorf("selected %q", sel.Candidate.Provider)
	}
	if err := tracker.Watch("sort1", sel.Reliability); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && !tracker.Quarantined("sort1"); i++ {
		tracker.Observe("sort1", false)
	}
	if tracker.Verdict("sort1") != socrel.VerdictViolating {
		t.Errorf("verdict after failures = %v, want violating", tracker.Verdict("sort1"))
	}
	if _, err := socruntime.SelectHealthyBinding(context.Background(), tracker, asm,
		"search", "sort", cands, socrel.Options{}, "search", 1, 256, 1); !errors.Is(err, socruntime.ErrAllQuarantined) {
		t.Errorf("error = %v, want ErrAllQuarantined", err)
	}
	clk.Advance(socruntime.QuarantineWindow)
	if tracker.Quarantined("sort1") {
		t.Error("sort1 still quarantined after the quarantine window")
	}

	m, err := socrel.NewMonitor(socrel.MonitorConfig{Predicted: 0.9, Degraded: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	m.Record(true)
	var snap monitor.Snapshot = m.Snapshot()
	restored, err := monitor.Restore(snap)
	if err != nil {
		t.Fatalf("RestoreMonitor: %v", err)
	}
	if restored.Total() != 1 {
		t.Errorf("restored total = %d, want 1", restored.Total())
	}
}

func TestFacadeReportAndSimulator(t *testing.T) {
	p := socrel.DefaultPaperParams()
	asm, err := socrel.LocalAssembly(p)
	if err != nil {
		t.Fatal(err)
	}
	ev := socrel.NewEvaluator(asm, socrel.Options{})
	rep, err := ev.Report("search", 1, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pfail <= 0 {
		t.Error("report pfail")
	}
	pfail, err := ev.Pfail("search", 1, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pfail != rep.Pfail {
		t.Error("report and Pfail disagree")
	}
	traces := [][]string{{"Start", "End"}}
	if _, err := socrel.EstimateChainFromTraces(traces); err != nil {
		t.Error(err)
	}
	if _, err := socrel.Crossover(
		func(x float64) (float64, error) { return x, nil },
		func(x float64) (float64, error) { return 1, nil }, 0, 2, 0); err != nil {
		t.Error(err)
	}
	if _, err := socrel.PowersOfTwo(1, 3); err != nil {
		t.Error(err)
	}
	if _, err := model.CombineState(socrel.AND, socrel.NoSharing, 0,
		[]model.RequestFailure{{Int: 0.1, Ext: 0.1}}); err != nil {
		t.Error(err)
	}
	prof := perf.New(asm)
	if err := prof.UseCanonicalCosts(asm.ServiceNames()); err != nil {
		t.Fatal(err)
	}
	if _, err := prof.ExpectedTime("search", 1, 256, 1); err != nil {
		t.Error(err)
	}
	if _, err := socrel.SelectBinding(asm, "search", "sort",
		[]socrel.Candidate{{Provider: "sort1", Connector: "lpc"}},
		socrel.Options{}, "search", 1, 256, 1); err != nil {
		t.Error(err)
	}
	if socrel.SoftwareFailure(socrel.Num(0.1), socrel.Num(2)) == nil {
		t.Error("SoftwareFailure")
	}
}

// TestFacadeServingLayer drives the overload-resilient serving layer
// through the facade: a paper assembly behind an admission-controlled
// server, one exact answer, then a shed at a new point. Compiled to a
// closed form, the shed is Stale, the closed form at that point;
// compiled numerically, it is Unavailable.
func TestFacadeServingLayer(t *testing.T) {
	asm, err := socrel.LocalAssembly(socrel.DefaultPaperParams())
	if err != nil {
		t.Fatal(err)
	}
	parametric, err := socrel.CompileParametric(asm, socrel.Options{}, socrel.ParametricOptions{})
	if err != nil {
		t.Fatal(err)
	}
	numeric, err := socrel.Compile(asm, socrel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ca   *core.CompiledAssembly
		kind socruntime.AnswerKind
	}{
		{"parametric", parametric, socruntime.Stale},
		{"numeric", numeric, socruntime.Unavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := server.New(tc.ca, server.Config{
				Service: "search",
			})
			ans := srv.Serve(context.Background(), server.Request{
				Params:   []float64{1, 4096, 1},
				Priority: server.Interactive,
			})
			if !ans.IsExact() {
				t.Fatalf("answer = %+v, want exact", ans)
			}
			shed := srv.Serve(context.Background(), server.Request{
				Params:  []float64{1, 8192, 1},
				Timeout: time.Nanosecond, // cannot cover any service-time estimate
			})
			if shed.Kind != tc.kind || !errors.Is(shed.Err, server.ErrOverloaded) {
				t.Fatalf("shed answer = %+v, want %v wrapping ErrOverloaded", shed, tc.kind)
			}
			if tc.kind == socruntime.Stale {
				want, err := tc.ca.Pfail("search", 1, 8192, 1)
				if err != nil {
					t.Fatal(err)
				}
				if shed.Pfail != want || !shed.AsOf.Equal(ans.AsOf) {
					t.Fatalf("stale = %v as of %v, want %v as of %v", shed.Pfail, shed.AsOf, want, ans.AsOf)
				}
			}
			if st := srv.Stats(); st.Offered != 2 || st.ShedDeadline != 1 {
				t.Fatalf("stats = %+v, want offered=2 shed_deadline=1", st)
			}
		})
	}
}

func TestFacadeCluster(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	net := faultinject.NewNetwork(faultinject.NetConfig{Seed: 1})
	f, err := cluster.NewFleet(cluster.FleetConfig{
		Replicas: 3,
		Node: cluster.NodeConfig{
			GossipInterval: time.Second,
			Clock:          clk,
		},
		NewEvaluator: func(id string) server.Evaluator {
			return facadeConstEval{}
		},
		Network: net,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	ans := f.Serve(context.Background(), server.Request{Scope: "a", Params: []float64{1}})
	if !ans.IsExact() || ans.Pfail != 0.125 {
		t.Fatalf("fleet answer %+v, want exact 0.125", ans)
	}

	// Quarantine (upward drift) spreads by gossip through the facade
	// types.
	k := estimate.Key{Provider: "prov"}
	for _, n := range f.Nodes() {
		if err := n.Estimator().SetBound(k, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	n0 := f.Node("replica-0")
	for i := 0; i < 200 && !n0.Quarantined("prov"); i++ {
		n0.ObserveEstimate(estimate.Outcome{Provider: "prov", Failed: true})
	}
	f.GossipRound()
	if !f.Quarantined("prov") {
		t.Fatal("fleet did not converge on quarantine")
	}
	if st := n0.Stats(); st.RumorsSent == 0 {
		t.Fatalf("no rumors sent: %+v", st)
	}
	for _, m := range n0.Members() {
		if m.State != cluster.Alive {
			t.Fatalf("member %s = %v, want alive", m.ID, m.State)
		}
	}

	// Ring + route key helpers.
	r := cluster.NewRing(0)
	r.Add("a")
	r.Add("b")
	if owner, ok := r.Owner(cluster.RouteKey("s", "svc", []float64{0.5})); !ok || owner == "" {
		t.Fatal("ring gave no owner")
	}

	// Snapshot merge through the facade is idempotent.
	snap := n0.Estimator().Checkpoint()[k.String()]
	merged, err := snap.Merge(snap)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Total != snap.Total {
		t.Fatalf("self-merge changed evidence: %d -> %d", snap.Total, merged.Total)
	}
}

// facadeConstEval is a fixed-value evaluator for the cluster facade test.
type facadeConstEval struct{}

func (facadeConstEval) PfailCtx(context.Context, string, ...float64) (float64, error) {
	return 0.125, nil
}

func TestFacadeEstimation(t *testing.T) {
	est, err := estimate.New(estimate.Config{})
	if err != nil {
		t.Fatal(err)
	}
	k := estimate.Key{Provider: "cpu1", Context: "app"}
	if err := est.SetBound(k, 0.05); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		est.Observe(estimate.Outcome{Provider: "cpu1", Context: "app", Failed: i%10 == 0})
	}
	e, ok := est.Estimate(k)
	if !ok || e.Observations != 100 || e.Failures != 10 {
		t.Fatalf("estimate %+v ok=%v, want 100 obs / 10 failures", e, ok)
	}
	if e.Rate <= 0 || e.Lo >= e.Hi {
		t.Fatalf("degenerate fit %+v", e)
	}

	rt, err := estimate.ParseKey(k.String())
	if err != nil || rt != k {
		t.Fatalf("key round trip: %v %v", rt, err)
	}
	if _, err := estimate.ParseKey("nope"); !errors.Is(err, estimate.ErrBadKey) {
		t.Fatalf("malformed key error %v", err)
	}

	cp := est.Checkpoint()
	s := cp[k.String()]
	merged, err := s.Merge(s)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Total != s.Total || merged.Failures != s.Failures {
		t.Fatalf("idempotent merge changed evidence: %+v vs %+v", merged, s)
	}

	re, err := estimate.NewReactor(estimate.ReactorConfig{Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Bind(k, "lambda", 0.05); err != nil {
		t.Fatal(err)
	}
	if got := re.Rate(k); got != 0.05 {
		t.Fatalf("bound rate %g, want 0.05", got)
	}
	if err := re.Bind(k, "lambda", math.NaN()); !errors.Is(err, estimate.ErrBadBound) {
		t.Fatalf("NaN bound error %v", err)
	}
}

// TestFacadeMatchesUsers keeps the root package to the names its users
// reference: every exported name must appear as socrel.Name in README.md,
// EXPERIMENTS.md or a program under examples/, and every such reference
// must name an exported identifier. A capability nobody reaches through
// the facade stays in its internal package.
func TestFacadeMatchesUsers(t *testing.T) {
	fset := token.NewFileSet()
	sources, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	for _, path := range sources {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					exported[d.Name.Name] = d.Name.IsExported()
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						exported[sp.Name.Name] = sp.Name.IsExported()
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							exported[n.Name] = n.IsExported()
						}
					}
				}
			}
		}
	}

	users := []string{"README.md", "EXPERIMENTS.md"}
	err = filepath.WalkDir("examples", func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			users = append(users, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := regexp.MustCompile(`\bsocrel\.([A-Z][A-Za-z0-9_]*)`)
	referenced := map[string][]string{}
	for _, path := range users {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllStringSubmatch(string(src), -1) {
			referenced[m[1]] = append(referenced[m[1]], path)
		}
	}

	var unused, dangling []string
	for name, isExported := range exported {
		if isExported && referenced[name] == nil {
			unused = append(unused, name)
		}
	}
	for name, paths := range referenced {
		if !exported[name] {
			dangling = append(dangling, name+" ("+paths[0]+")")
		}
	}
	sort.Strings(unused)
	sort.Strings(dangling)
	if len(unused) > 0 {
		t.Errorf("%d exported names no user references as socrel.Name: %v", len(unused), unused)
	}
	if len(dangling) > 0 {
		t.Errorf("references to names the root package does not export: %v", dangling)
	}
}
