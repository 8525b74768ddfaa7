package runtime_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"socrel/internal/assembly"
	"socrel/internal/core"
	"socrel/internal/expr"
	"socrel/internal/model"
	"socrel/internal/monitor"
	"socrel/internal/registry"
	rt "socrel/internal/runtime"
)

// buildCPUAssembly builds an estimation fixture: an "app" composite with
// one open role "worker" and two CPU candidates whose failure laws are
// 1 - exp(-lambda * N / s). With speed 1 and N = 1, each invocation
// carries exposure exactly 1, so Pfail(app) == 1 - exp(-lambda).
func buildCPUAssembly(t *testing.T, lam1, lam2 float64) (*assembly.Assembly, []registry.Candidate) {
	t.Helper()
	asm := assembly.New("estfix")
	asm.MustAddService(model.NewCPU("cpu1", 1, lam1))
	asm.MustAddService(model.NewCPU("cpu2", 1, lam2))
	app := model.NewComposite("app", nil, nil)
	st, err := app.Flow().AddState("work", model.AND, model.NoSharing)
	if err != nil {
		t.Fatal(err)
	}
	st.AddRequest(model.Request{Role: "worker", Params: []expr.Expr{expr.Num(1)}})
	if err := app.Flow().AddTransitionP(model.StartState, "work", 1); err != nil {
		t.Fatal(err)
	}
	if err := app.Flow().AddTransitionP("work", model.EndState, 1); err != nil {
		t.Fatal(err)
	}
	asm.MustAddService(app)
	return asm, []registry.Candidate{{Provider: "cpu1"}, {Provider: "cpu2"}}
}

// TestReportOutcomeFeedsHealth: every reported outcome feeds the bound
// provider's SPRT, so an all-failure stream quarantines it and the
// supervisor rebinds to the alternative.
func TestReportOutcomeFeedsHealth(t *testing.T) {
	clk := rt.NewFakeClock(t0)
	asm, cands := buildWorkerAssembly(t, 0.01, 0.03)
	sup, err := rt.NewSupervisor(context.Background(), rt.SupervisorConfig{Clock: clk}, asm, "app", "worker", cands, core.Options{}, "app")
	if err != nil {
		t.Fatal(err)
	}
	rebound := false
	for i := 0; i < 2000 && !rebound; i++ {
		_, rb, err := sup.ReportOutcome(context.Background(), false)
		if err != nil {
			t.Fatalf("ReportOutcome: %v", err)
		}
		rebound = rb
	}
	if !rebound {
		t.Fatal("all-failure stream never tripped the SPRT and rebound")
	}
	if sup.Current().Provider != "providerB" {
		t.Fatalf("bound to %q after trip", sup.Current().Provider)
	}
	if v := sup.Tracker().Verdict("providerA"); v != monitor.Violating {
		t.Fatalf("providerA verdict %v, want Violating: the outcomes were attributed elsewhere", v)
	}
}

func TestRepredictRebindsParameterAndPrediction(t *testing.T) {
	clk := rt.NewFakeClock(t0)
	var published []rt.RepredictEvent
	asm, cands := buildCPUAssembly(t, 0.05, 0.5)
	cfg := rt.SupervisorConfig{
		Clock:       clk,
		OnRepredict: func(ev rt.RepredictEvent) { published = append(published, ev) },
	}
	sup, err := rt.NewSupervisor(context.Background(), cfg, asm, "app", "worker", cands, core.Options{}, "app")
	if err != nil {
		t.Fatal(err)
	}
	if sup.Current().Provider != "cpu1" {
		t.Fatalf("initial binding %q", sup.Current().Provider)
	}
	wantOld := -math.Expm1(-0.05)

	oldPfail, newPfail, err := sup.Repredict(context.Background(), "cpu1", "lambda", 0.2)
	if err != nil {
		t.Fatalf("Repredict: %v", err)
	}
	if math.Abs(oldPfail-wantOld) > 1e-12 {
		t.Fatalf("old Pfail %g, want %g", oldPfail, wantOld)
	}
	if want := -math.Expm1(-0.2); math.Abs(newPfail-want) > 1e-12 {
		t.Fatalf("new Pfail %g, want %g", newPfail, want)
	}
	// The live model now carries the learned rate...
	svc, err := asm.ServiceByName("cpu1")
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Attributes()["lambda"]; got != 0.2 {
		t.Fatalf("lambda after repredict = %g", got)
	}
	// ...the prediction and served answers track it...
	if want := 1 - newPfail; math.Abs(sup.Predicted()-want) > 1e-12 {
		t.Fatalf("predicted %g, want %g", sup.Predicted(), want)
	}
	ans := sup.Pfail(context.Background())
	if !ans.IsExact() || math.Abs(ans.Pfail-newPfail) > 1e-12 {
		t.Fatalf("served answer %+v", ans)
	}
	// ...and the event was recorded and published.
	evs := sup.Repredictions()
	if len(evs) != 1 || len(published) != 1 || evs[0] != published[0] {
		t.Fatalf("events: recorded %+v published %+v", evs, published)
	}
	ev := evs[0]
	if ev.Provider != "cpu1" || ev.Attr != "lambda" || ev.OldValue != 0.05 || ev.NewValue != 0.2 {
		t.Fatalf("bad event: %+v", ev)
	}
	if ev.OldPfail != oldPfail || ev.NewPfail != newPfail || !ev.At.Equal(t0) {
		t.Fatalf("bad event predictions: %+v", ev)
	}
}

func TestRepredictValidation(t *testing.T) {
	asm, cands := buildCPUAssembly(t, 0.05, 0.5)
	sup, err := rt.NewSupervisor(context.Background(), rt.SupervisorConfig{Clock: rt.NewFakeClock(t0)}, asm, "app", "worker", cands, core.Options{}, "app")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sup.Repredict(context.Background(), "nosuch", "lambda", 0.1); !errors.Is(err, model.ErrUnknownService) {
		t.Fatalf("unknown provider: %v", err)
	}
	if _, _, err := sup.Repredict(context.Background(), "app", "lambda", 0.1); !errors.Is(err, model.ErrInvalidService) {
		t.Fatalf("composite provider: %v", err)
	}
	if _, _, err := sup.Repredict(context.Background(), "cpu1", "nosuchattr", 0.1); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	if _, _, err := sup.Repredict(context.Background(), "cpu1", "lambda", math.NaN()); err == nil {
		t.Fatal("NaN value accepted")
	}
	// Nothing above may have disturbed the model.
	svc, _ := asm.ServiceByName("cpu1")
	if got := svc.Attributes()["lambda"]; got != 0.05 {
		t.Fatalf("lambda disturbed by failed repredicts: %g", got)
	}
	if len(sup.Repredictions()) != 0 {
		t.Fatal("failed repredicts were recorded")
	}
}

// TestRepredictRecoversQuarantine drives the single-candidate drift
// story: the drifted provider's outcomes quarantine it, answers degrade,
// and a re-prediction — not the end of the quarantine window — restores
// exact service under the corrected model.
func TestRepredictRecoversQuarantine(t *testing.T) {
	clk := rt.NewFakeClock(t0)
	asm, _ := buildCPUAssembly(t, 0.05, 0.5)
	cands := []registry.Candidate{{Provider: "cpu1"}} // nowhere to fail over
	sup, err := rt.NewSupervisor(context.Background(), rt.SupervisorConfig{Clock: clk}, asm, "app", "worker", cands, core.Options{}, "app")
	if err != nil {
		t.Fatal(err)
	}
	var rebindErr error
	for i := 0; i < 100 && rebindErr == nil; i++ {
		_, _, rebindErr = sup.ReportOutcome(context.Background(), false)
	}
	if !errors.Is(rebindErr, rt.ErrAllQuarantined) {
		t.Fatalf("rebind error = %v, want ErrAllQuarantined", rebindErr)
	}
	if ans := sup.Pfail(context.Background()); ans.IsExact() || !errors.Is(ans.Err, rt.ErrQuarantined) {
		t.Fatalf("quarantined single binding answered %+v, want a degraded answer wrapping ErrQuarantined", ans)
	}
	if _, _, err := sup.Repredict(context.Background(), "cpu1", "lambda", 0.2); err != nil {
		t.Fatalf("Repredict: %v", err)
	}
	ans := sup.Pfail(context.Background())
	if !ans.IsExact() {
		t.Fatalf("answer after repredict: %+v", ans)
	}
	if want := -math.Expm1(-0.2); math.Abs(ans.Pfail-want) > 1e-12 {
		t.Fatalf("Pfail %g, want %g", ans.Pfail, want)
	}
}

func TestWithAttrAndReplaceService(t *testing.T) {
	cpu := model.NewCPU("cpu1", 2, 0.05)
	up, err := cpu.WithAttr("lambda", 0.4)
	if err != nil {
		t.Fatalf("WithAttr: %v", err)
	}
	if got := up.Attributes()["lambda"]; got != 0.4 {
		t.Fatalf("updated lambda %g", got)
	}
	if got := cpu.Attributes()["lambda"]; got != 0.05 {
		t.Fatalf("original mutated: lambda %g", got)
	}
	if up.Attributes()["s"] != 2 || up.Name() != "cpu1" {
		t.Fatalf("copy lost fields: %+v", up.Attributes())
	}
	if err := up.Validate(); err != nil {
		t.Fatalf("updated service invalid: %v", err)
	}
	if _, err := cpu.WithAttr("nope", 1); err == nil {
		t.Fatal("WithAttr accepted unknown attribute")
	}
	if _, err := cpu.WithAttr("lambda", math.Inf(1)); err == nil {
		t.Fatal("WithAttr accepted infinite value")
	}

	asm := assembly.New("a")
	asm.MustAddService(cpu)
	if err := asm.ReplaceService(up); err != nil {
		t.Fatalf("ReplaceService: %v", err)
	}
	got, err := asm.ServiceByName("cpu1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Attributes()["lambda"] != 0.4 {
		t.Fatal("ReplaceService did not swap the definition")
	}
	if err := asm.ReplaceService(model.NewConstant("stranger", 0.1)); !errors.Is(err, model.ErrUnknownService) {
		t.Fatalf("ReplaceService on unknown name: %v", err)
	}
	if names := asm.ServiceNames(); len(names) != 1 || names[0] != "cpu1" {
		t.Fatalf("registration order disturbed: %v", names)
	}
}

// TestRepredictReusesLivePrediction: the pre-swap prediction of a
// re-prediction is the previous re-prediction's post-swap value, bit for
// bit — the supervisor does not evaluate the old model again.
func TestRepredictReusesLivePrediction(t *testing.T) {
	asm, cands := buildCPUAssembly(t, 0.05, 0.5)
	sup, err := rt.NewSupervisor(context.Background(), rt.SupervisorConfig{Clock: rt.NewFakeClock(t0)}, asm, "app", "worker", cands, core.Options{}, "app")
	if err != nil {
		t.Fatal(err)
	}
	for _, lam := range []float64{0.2, 0.1, 0.3} {
		if _, _, err := sup.Repredict(context.Background(), "cpu1", "lambda", lam); err != nil {
			t.Fatalf("Repredict lambda=%g: %v", lam, err)
		}
	}
	evs := sup.Repredictions()
	if len(evs) != 3 {
		t.Fatalf("%d events, want 3", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if math.Float64bits(evs[i].OldPfail) != math.Float64bits(evs[i-1].NewPfail) {
			t.Fatalf("event %d OldPfail %v, want event %d NewPfail %v bit for bit", i, evs[i].OldPfail, i-1, evs[i-1].NewPfail)
		}
	}
}

// TestRepredictReusesExactPfail: an exact Pfail answer is the live
// model's prediction, so the next re-prediction reports it as OldPfail.
func TestRepredictReusesExactPfail(t *testing.T) {
	asm, cands := buildCPUAssembly(t, 0.05, 0.5)
	sup, err := rt.NewSupervisor(context.Background(), rt.SupervisorConfig{Clock: rt.NewFakeClock(t0)}, asm, "app", "worker", cands, core.Options{}, "app")
	if err != nil {
		t.Fatal(err)
	}
	ans := sup.Pfail(context.Background())
	if !ans.IsExact() {
		t.Fatalf("answer %+v", ans)
	}
	oldPfail, _, err := sup.Repredict(context.Background(), "cpu1", "lambda", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(oldPfail) != math.Float64bits(ans.Pfail) {
		t.Fatalf("OldPfail %v, want the exact answer %v bit for bit", oldPfail, ans.Pfail)
	}
}

// TestRepredictAfterRebindEvaluatesNewBinding: an SPRT-driven rebind
// changes the live model, so the next re-prediction's OldPfail is a fresh
// evaluation of the new binding, not the prediction cached for the old
// one.
func TestRepredictAfterRebindEvaluatesNewBinding(t *testing.T) {
	ctx := context.Background()
	asm, cands := buildCPUAssembly(t, 0.05, 0.5)
	sup, err := rt.NewSupervisor(ctx, rt.SupervisorConfig{Clock: rt.NewFakeClock(t0)}, asm, "app", "worker", cands, core.Options{}, "app")
	if err != nil {
		t.Fatal(err)
	}
	// Cache a prediction for the cpu1 binding.
	_, cpu1Pfail, err := sup.Repredict(ctx, "cpu1", "lambda", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rebound := false
	for i := 0; i < 2000 && !rebound; i++ {
		_, rb, err := sup.ReportOutcome(ctx, false)
		if err != nil {
			t.Fatalf("ReportOutcome: %v", err)
		}
		rebound = rb
	}
	if !rebound || sup.Current().Provider != "cpu2" {
		t.Fatalf("no failover to cpu2 (rebound %v, bound to %q)", rebound, sup.Current().Provider)
	}

	oldPfail, _, err := sup.Repredict(ctx, "cpu2", "lambda", 0.4)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := buildCPUAssembly(t, 0.1, 0.5)
	ref.AddBinding("app", "worker", "cpu2", "")
	want, err := core.New(ref, core.Options{}).Pfail("app")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(oldPfail-want) > 1e-12 {
		t.Fatalf("OldPfail after rebind %v, want %v (the cpu1 binding predicted %v)", oldPfail, want, cpu1Pfail)
	}
}

// TestSupervisorHistoryIsCapped: the supervisor keeps only its most
// recent re-predictions, while OnRepredict sees every one.
func TestSupervisorHistoryIsCapped(t *testing.T) {
	const n = 70
	published := 0
	asm, cands := buildCPUAssembly(t, 0.05, 0.5)
	cfg := rt.SupervisorConfig{Clock: rt.NewFakeClock(t0), OnRepredict: func(rt.RepredictEvent) { published++ }}
	sup, err := rt.NewSupervisor(context.Background(), cfg, asm, "app", "worker", cands, core.Options{}, "app")
	if err != nil {
		t.Fatal(err)
	}
	value := func(i int) float64 { return 0.1 + 0.001*float64(i) }
	for i := 0; i < n; i++ {
		if _, _, err := sup.Repredict(context.Background(), "cpu1", "lambda", value(i)); err != nil {
			t.Fatal(err)
		}
	}
	if published != n {
		t.Fatalf("OnRepredict saw %d events, want %d", published, n)
	}
	evs := sup.Repredictions()
	if len(evs) != 64 {
		t.Fatalf("kept %d events, want 64", len(evs))
	}
	for j, ev := range evs {
		if want := value(n - 64 + j); ev.NewValue != want {
			t.Fatalf("event %d NewValue %g, want %g (most recent, oldest first)", j, ev.NewValue, want)
		}
	}
}
