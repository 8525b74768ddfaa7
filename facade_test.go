package socrel_test

// Coverage of the extension re-exports: every public wrapper must be
// callable and behave like its internal counterpart.

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"socrel"
)

func TestFacadeConnectors(t *testing.T) {
	retry, err := socrel.NewRetry("r", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := retry.Roles(); len(got) != 1 || got[0] != socrel.RoleTransport {
		t.Errorf("retry roles = %v", got)
	}
	rep, err := socrel.NewKOfNTransport("rep", 3, 2, socrel.Sharing)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Flow().State("deliver").K != 2 {
		t.Error("k-of-n threshold lost")
	}
	q, err := socrel.NewQueue("q", 10, 270)
	if err != nil {
		t.Fatal(err)
	}
	roles := q.Roles()
	found := map[string]bool{}
	for _, r := range roles {
		found[r] = true
	}
	for _, want := range []string{socrel.RoleBrokerCPU, socrel.RoleNet1, socrel.RoleNet2} {
		if !found[want] {
			t.Errorf("queue missing role %q (has %v)", want, roles)
		}
	}
	lpc, err := socrel.NewLPC("l", 100)
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
	a := socrel.NewPropagationAnalysis(flow)
	if err := a.SetBehavior("s", socrel.PropagationBehavior{PIntro: 0.25}); err != nil {
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
	comp, ok := svc.(*socrel.Composite)
	if !ok {
		t.Fatal("search is not a composite")
	}
	pa, err := socrel.PropagationFromComposite(asm, comp, []float64{1, 256, 1}, socrel.Options{},
		map[string]socrel.PropagationBehavior{"sort": {PIntro: 0.1}})
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
	if m.SPRT() != socrel.VerdictMeeting {
		t.Errorf("verdict = %v", m.SPRT())
	}
	if m.IntervalCheck(1.96, 10) != socrel.VerdictMeeting {
		t.Errorf("interval verdict = %v", m.IntervalCheck(1.96, 10))
	}
}

func TestFacadeDOT(t *testing.T) {
	p := socrel.DefaultPaperParams()
	asm, err := socrel.RemoteAssembly(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(socrel.AssemblyDOT(asm), "digraph") {
		t.Error("AssemblyDOT")
	}
	svc, err := asm.ServiceByName("search")
	if err != nil {
		t.Fatal(err)
	}
	comp := svc.(*socrel.Composite)
	if !strings.Contains(socrel.FlowDOT(comp), "call sort(list)") {
		t.Error("FlowDOT")
	}
	s, err := socrel.FlowWithFailuresDOT(asm, comp, []float64{1, 256, 1}, socrel.Options{})
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

	configs, err := socrel.Explore(asm,
		[]socrel.Choice{{Caller: "app", Role: "node",
			Candidates: []socrel.Candidate{{Provider: "fast"}, {Provider: "safe"}}}},
		socrel.ExploreOptions{WithTime: true}, "app")
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 2 {
		t.Fatalf("configs = %+v", configs)
	}
	front := socrel.ParetoFront(configs)
	if len(front) != 2 { // fast is faster, safe is safer: both survive
		t.Errorf("front = %+v", front)
	}
}

func TestFacadeElasticities(t *testing.T) {
	f := func(p map[string]float64) (float64, error) { return p["x"] * p["x"], nil }
	els, err := socrel.Elasticities(f, map[string]float64{"x": 3}, []string{"x"}, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if len(els) != 1 || math.Abs(els[0].Value-2) > 1e-6 {
		t.Errorf("elasticities = %+v", els)
	}
}

func TestFacadeRegistry(t *testing.T) {
	r := socrel.NewRegistry()
	if err := r.Publish(socrel.NewPerfect("svc"), "desc", "tag"); err != nil {
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
	s := socrel.NewSimple("s", []string{"x"}, socrel.Attrs{"a": 1}, socrel.MustParseExpr("x * a"))
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
	e, err := socrel.ParseExpr("1 + 2")
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Eval(socrel.Env{})
	if err != nil || v != 3 {
		t.Errorf("ParseExpr eval = %g, %v", v, err)
	}
	if socrel.Var("x") == nil || socrel.Num(1) == nil {
		t.Error("expression constructors")
	}
	if _, err := socrel.Sweep("s", []float64{1}, func(x float64) (float64, error) { return x, nil }); err != nil {
		t.Error(err)
	}
}

func TestFacadeSelfHealingRuntime(t *testing.T) {
	clk := socrel.NewFakeClock(time.Unix(0, 0))

	b := socrel.NewBreaker(socrel.BreakerConfig{FailureThreshold: 2, OpenFor: time.Minute, Clock: clk})
	if b.State() != socrel.BreakerClosed {
		t.Errorf("fresh breaker = %v", b.State())
	}
	b.Trip(socrel.ErrProviderDegraded)
	if b.State() != socrel.BreakerOpen {
		t.Errorf("tripped breaker = %v", b.State())
	}

	if socrel.DefaultRetryable(socrel.ErrAttemptTimeout) != true {
		t.Error("attempt timeouts should retry")
	}
	if socrel.DefaultRetryable(socrel.ErrCanceled) {
		t.Error("cancellations should fail fast")
	}

	p := socrel.DefaultPaperParams()
	asm, err := socrel.LocalAssembly(p)
	if err != nil {
		t.Fatal(err)
	}
	clk2 := socrel.NewFakeClock(time.Unix(0, 0))
	clk2.AutoAdvance()
	rr := socrel.NewRetryResolver(asm, socrel.RetryPolicy{Clock: clk2})
	if _, err := rr.ServiceByName("search"); err != nil {
		t.Fatal(err)
	}

	tracker := socrel.NewHealthTracker(socrel.HealthConfig{
		Breaker: socrel.BreakerConfig{Clock: clk},
	})
	cands := []socrel.Candidate{{Provider: "sort1", Connector: "lpc"}}
	sel, err := socrel.SelectHealthyBinding(context.Background(), tracker, asm,
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
	tracker.Breaker("sort1").Trip(socrel.ErrProviderDegraded)
	if _, err := socrel.SelectHealthyBinding(context.Background(), tracker, asm,
		"search", "sort", cands, socrel.Options{}, "search", 1, 256, 1); !errors.Is(err, socrel.ErrAllQuarantined) {
		t.Errorf("error = %v, want ErrAllQuarantined", err)
	}

	m, err := socrel.NewMonitor(socrel.MonitorConfig{Predicted: 0.9, Degraded: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	m.Record(true)
	var snap socrel.MonitorSnapshot = m.Snapshot()
	restored, err := socrel.RestoreMonitor(snap)
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
	if _, err := socrel.CombineState(socrel.AND, socrel.NoSharing, 0,
		[]socrel.RequestFailure{{Int: 0.1, Ext: 0.1}}); err != nil {
		t.Error(err)
	}
	prof := socrel.NewPerfProfile(asm)
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
		ca   *socrel.CompiledAssembly
		kind socrel.AnswerKind
	}{
		{"parametric", parametric, socrel.AnswerStale},
		{"numeric", numeric, socrel.AnswerUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := socrel.NewServer(tc.ca, socrel.ServerConfig{
				Service: "search",
			})
			ans := srv.Serve(context.Background(), socrel.ServerRequest{
				Params:   []float64{1, 4096, 1},
				Priority: socrel.PriorityInteractive,
			})
			if !ans.IsExact() {
				t.Fatalf("answer = %+v, want exact", ans)
			}
			shed := srv.Serve(context.Background(), socrel.ServerRequest{
				Params:  []float64{1, 8192, 1},
				Timeout: time.Nanosecond, // cannot cover any service-time estimate
			})
			if shed.Kind != tc.kind || !errors.Is(shed.Err, socrel.ErrOverloaded) {
				t.Fatalf("shed answer = %+v, want %v wrapping ErrOverloaded", shed, tc.kind)
			}
			if tc.kind == socrel.AnswerStale {
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
	clk := socrel.NewFakeClock(time.Unix(0, 0))
	net := socrel.NewNetworkFaults(socrel.NetworkFaultsConfig{Seed: 1})
	f, err := socrel.NewFleet(socrel.FleetConfig{
		Replicas: 3,
		Node: socrel.ClusterNodeConfig{
			GossipInterval: time.Second,
			Clock:          clk,
		},
		NewEvaluator: func(id string) socrel.ServerEvaluator {
			return facadeConstEval{}
		},
		Network: net,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	ans := f.Serve(context.Background(), socrel.ServerRequest{Scope: "a", Params: []float64{1}})
	if !ans.IsExact() || ans.Pfail != 0.125 {
		t.Fatalf("fleet answer %+v, want exact 0.125", ans)
	}

	// Quarantine (upward drift) spreads by gossip through the facade
	// types.
	k := socrel.EstimateKey{Provider: "prov"}
	for _, n := range f.Nodes() {
		if err := n.Estimator().SetBound(k, 0.01); err != nil {
			t.Fatal(err)
		}
	}
	n0 := f.Node("replica-0")
	for i := 0; i < 200 && !n0.Quarantined("prov"); i++ {
		n0.ObserveEstimate(socrel.EstimateOutcome{Provider: "prov", Failed: true})
	}
	f.GossipRound()
	if !f.Quarantined("prov") {
		t.Fatal("fleet did not converge on quarantine")
	}
	if st := n0.Stats(); st.RumorsSent == 0 {
		t.Fatalf("no rumors sent: %+v", st)
	}
	for _, m := range n0.Members() {
		if m.State != socrel.MemberAlive {
			t.Fatalf("member %s = %v, want alive", m.ID, m.State)
		}
	}

	// Ring + route key helpers.
	r := socrel.NewClusterRing(0)
	r.Add("a")
	r.Add("b")
	if owner, ok := r.Owner(socrel.ClusterRouteKey("s", "svc", []float64{0.5})); !ok || owner == "" {
		t.Fatal("ring gave no owner")
	}

	// Snapshot merge through the facade is idempotent.
	snap := n0.Estimator().Checkpoint()[k.String()]
	merged, err := socrel.MergeEstimateSnapshots(snap, snap)
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
	est, err := socrel.NewEstimator(socrel.EstimatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	k := socrel.EstimateKey{Provider: "cpu1", Context: "app"}
	if err := est.SetBound(k, 0.05); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		est.Observe(socrel.EstimateOutcome{Provider: "cpu1", Context: "app", Failed: i%10 == 0})
	}
	e, ok := est.Estimate(k)
	if !ok || e.Observations != 100 || e.Failures != 10 {
		t.Fatalf("estimate %+v ok=%v, want 100 obs / 10 failures", e, ok)
	}
	if e.Rate <= 0 || e.Lo >= e.Hi {
		t.Fatalf("degenerate fit %+v", e)
	}

	rt, err := socrel.ParseEstimateKey(k.String())
	if err != nil || rt != k {
		t.Fatalf("key round trip: %v %v", rt, err)
	}
	if _, err := socrel.ParseEstimateKey("nope"); !errors.Is(err, socrel.ErrBadEstimateKey) {
		t.Fatalf("malformed key error %v", err)
	}

	cp := est.Checkpoint()
	s := cp[k.String()]
	merged, err := socrel.MergeEstimateSnapshots(s, s)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Total != s.Total || merged.Failures != s.Failures {
		t.Fatalf("idempotent merge changed evidence: %+v vs %+v", merged, s)
	}

	re, err := socrel.NewReactor(socrel.ReactorConfig{Estimator: est})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Bind(k, "lambda", 0.05); err != nil {
		t.Fatal(err)
	}
	if got := re.Rate(k); got != 0.05 {
		t.Fatalf("bound rate %g, want 0.05", got)
	}
	if err := re.Bind(k, "lambda", math.NaN()); !errors.Is(err, socrel.ErrBadBound) {
		t.Fatalf("NaN bound error %v", err)
	}
}
