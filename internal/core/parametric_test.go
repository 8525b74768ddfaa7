package core

// Tests for the parametric (closed-form) compilation path: value parity
// against the numeric kernel on the randomized flow population, the
// fallback seam (state bound, pointwise-absorbing self-loops), the
// ParametricStats accounting of which path served which point, and the
// compiled symbolic gradients against central finite differences.

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"socrel/internal/assembly"
	"socrel/internal/expr"
	"socrel/internal/model"
)

// sensAssembly is a small smooth assembly with a cyclic retry loop and a
// known closed form: root(x) requests leafA(x) in s0, retries through s1
// with a partial self-loop.
func sensAssembly(t *testing.T) *assembly.Assembly {
	t.Helper()
	asm := assembly.New("sens")
	leafA := model.NewSimple("leafA", []string{"n"}, model.Attrs{"phi": 1e-4},
		expr.MustParse("1 - (1 - phi) ^ n"))
	if err := asm.AddService(leafA); err != nil {
		t.Fatal(err)
	}
	root := model.NewComposite("root", []string{"x"}, nil)
	flow := root.Flow()
	s0, err := flow.AddState("s0", model.AND, model.NoSharing)
	if err != nil {
		t.Fatal(err)
	}
	s0.AddRequest(model.Request{Role: "leafA", Params: []expr.Expr{expr.Var("x")}})
	s1, err := flow.AddState("s1", model.AND, model.NoSharing)
	if err != nil {
		t.Fatal(err)
	}
	s1.AddRequest(model.Request{Role: "leafA", Params: []expr.Expr{expr.MustParse("x / 2")}})
	for _, tr := range []struct {
		from, to string
		p        float64
	}{
		{model.StartState, "s0", 1},
		{"s0", model.EndState, 0.8},
		{"s0", "s1", 0.2},
		{"s1", "s1", 0.3},
		{"s1", "s0", 0.5},
		{"s1", model.EndState, 0.2},
	} {
		if err := flow.AddTransitionP(tr.from, tr.to, tr.p); err != nil {
			t.Fatal(err)
		}
	}
	if err := asm.AddService(root); err != nil {
		t.Fatal(err)
	}
	if err := asm.Validate(); err != nil {
		t.Fatal(err)
	}
	return asm
}

// TestParametricParityRandomFlows extends the cross-engine parity property
// to the closed-form path: on the same 60-seed population, every
// CompileParametric evaluation must agree with the numeric kernel and the
// interpreted engine within 1e-12, under the default options (closed forms
// where the fragment allows, silent fallback elsewhere) and under
// StateBound=1 (every cyclic flow forced through the fallback seam). The
// ParametricStats counters must attribute every point to the path that
// actually served it.
func TestParametricParityRandomFlows(t *testing.T) {
	const tol = 1e-12
	var sawParametric, sawFallback int
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		asm, err := randomFlowAssembly(rng)
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		numeric, err := Compile(asm, Options{}, "root")
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		par, err := CompileParametric(asm, Options{}, ParametricOptions{}, "root")
		if err != nil {
			t.Fatalf("seed %d: compile parametric: %v", seed, err)
		}
		tight, err := CompileParametric(asm, Options{}, ParametricOptions{StateBound: 1}, "root")
		if err != nil {
			t.Fatalf("seed %d: compile parametric tight: %v", seed, err)
		}
		interp := New(asm, Options{})

		fellBack := par.ParametricFallbacks()
		for service, reason := range fellBack {
			if !errors.Is(reason, ErrNoParametricForm) && !errors.Is(reason, ErrPanic) {
				t.Errorf("seed %d: fallback reason for %s outside the taxonomy: %v", seed, service, reason)
			}
		}
		st := par.ParametricStats()
		if st.Outputs+st.Fallbacks != 1 {
			t.Fatalf("seed %d: outputs %d + fallbacks %d != 1 root", seed, st.Outputs, st.Fallbacks)
		}
		if st.Outputs == 1 {
			sawParametric++
			if len(fellBack) != 0 {
				t.Errorf("seed %d: fallback recorded %v but output compiled", seed, fellBack)
			}
			if _, ok := par.ClosedForm("root"); !ok {
				t.Errorf("seed %d: compiled output has no ClosedForm", seed)
			}
		} else {
			sawFallback++
			if len(fellBack) != 1 || fellBack["root"] == nil {
				t.Errorf("seed %d: fallback recorded %v, want a reason for root alone", seed, fellBack)
			}
		}

		// A cyclic flow under StateBound=1 must always fall back.
		cyclic := false
		for _, svc := range numeric.services {
			if svc.comp != nil && svc.comp.structure.maxSCC > 1 {
				cyclic = true
			}
		}
		tightSt := tight.ParametricStats()
		if cyclic && tightSt.Fallbacks == 0 {
			t.Errorf("seed %d: cyclic flow compiled a closed form under StateBound=1", seed)
		}

		xs := make([]float64, 11)
		sets := make([][]float64, len(xs))
		for j := range xs {
			xs[j] = 1 + 37*float64(j) + rng.Float64()
			sets[j] = []float64{xs[j]}
		}
		batch, err := par.PfailBatch("root", sets)
		if err != nil {
			t.Fatalf("seed %d: parametric batch: %v", seed, err)
		}
		tightBatch, err := tight.PfailBatch("root", sets)
		if err != nil {
			t.Fatalf("seed %d: tight batch: %v", seed, err)
		}
		for j, x := range xs {
			want, err := numeric.Pfail("root", x)
			if err != nil {
				t.Fatalf("seed %d: numeric x=%g: %v", seed, x, err)
			}
			got, err := par.Pfail("root", x)
			if err != nil {
				t.Fatalf("seed %d: parametric x=%g: %v", seed, x, err)
			}
			if math.Abs(got-want) > tol {
				t.Errorf("seed %d x=%g: parametric %v vs numeric %v, |diff| = %g", seed, x, got, want, math.Abs(got-want))
			}
			if batch[j] != got {
				t.Errorf("seed %d x=%g: parametric batch %v != scalar %v (want bitwise equality)", seed, x, batch[j], got)
			}
			iv, err := interp.Pfail("root", x)
			if err != nil {
				t.Fatalf("seed %d: interpreted x=%g: %v", seed, x, err)
			}
			if math.Abs(got-iv) > tol {
				t.Errorf("seed %d x=%g: parametric %v vs interpreted %v, |diff| = %g", seed, x, got, iv, math.Abs(got-iv))
			}
			if math.Abs(tightBatch[j]-want) > tol {
				t.Errorf("seed %d x=%g: tight %v vs numeric %v", seed, x, tightBatch[j], want)
			}
		}

		// Every evaluated point must be attributed to exactly one path.
		st = par.ParametricStats()
		total := st.ParametricPoints + st.NumericPoints
		if wantTotal := uint64(2 * len(xs)); total != wantTotal {
			t.Errorf("seed %d: %d points attributed, want %d", seed, total, wantTotal)
		}
		if st.Outputs == 1 && st.ParametricPoints == 0 {
			t.Errorf("seed %d: output compiled but no point took the closed form", seed)
		}
		if st.Outputs == 0 && st.ParametricPoints != 0 {
			t.Errorf("seed %d: no closed form but %d parametric points", seed, st.ParametricPoints)
		}
		if cyclic {
			if tightSt = tight.ParametricStats(); tightSt.ParametricPoints != 0 {
				t.Errorf("seed %d: StateBound=1 cyclic flow served %d parametric points", seed, tightSt.ParametricPoints)
			}
		}
	}
	if sawParametric < 20 {
		t.Errorf("only %d/60 seeds compiled closed forms; fallback coverage is drowning the parametric path", sawParametric)
	}
	if sawFallback == 0 {
		t.Log("note: all 60 seeds compiled closed forms (fallback seam covered by the StateBound=1 pass)")
	}
}

// TestParametricSensitivities checks the compiled symbolic gradients
// against central finite differences of the numeric kernel on a smooth
// cyclic assembly.
func TestParametricSensitivities(t *testing.T) {
	asm := sensAssembly(t)
	ca, err := CompileParametric(asm, Options{}, ParametricOptions{}, "root")
	if err != nil {
		t.Fatal(err)
	}
	if st := ca.ParametricStats(); st.Outputs != 1 {
		t.Fatalf("expected a closed form, got %+v (fallbacks: %v)", st, ca.ParametricFallbacks())
	}
	formals, ok := ca.FormalParams("root")
	if !ok || len(formals) != 1 || formals[0] != "x" {
		t.Fatalf("FormalParams = %v, %v", formals, ok)
	}
	numeric, err := Compile(asm, Options{}, "root")
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1, 10, 250, 4000} {
		grads, err := ca.Sensitivities("root", x)
		if err != nil {
			t.Fatalf("Sensitivities(x=%g): %v", x, err)
		}
		h := 1e-6 * math.Max(1, math.Abs(x))
		hi, err := numeric.Pfail("root", x+h)
		if err != nil {
			t.Fatal(err)
		}
		lo, err := numeric.Pfail("root", x-h)
		if err != nil {
			t.Fatal(err)
		}
		fd := (hi - lo) / (2 * h)
		scale := math.Max(math.Abs(fd), 1e-12)
		if rel := math.Abs(grads[0]-fd) / scale; rel > 1e-4 {
			t.Errorf("x=%g: symbolic d/dx %v vs finite difference %v (rel %g)", x, grads[0], fd, rel)
		}
	}
	if st := ca.ParametricStats(); st.GradientPoints != 4 {
		t.Errorf("GradientPoints = %d, want 4", st.GradientPoints)
	}
	if _, ok := ca.ClosedFormGradient("root", "x"); !ok {
		t.Error("ClosedFormGradient(root, x) missing")
	}
	if _, ok := ca.ClosedFormGradient("root", "nope"); ok {
		t.Error("ClosedFormGradient accepted an unknown parameter")
	}
}

// TestParametricClosedFormShape pins the closed form of the paper-style
// single-state flow Start -> s0 -> End with a retry self-loop to its
// analytic rational form: the rendered expression must contain the
// geometric-series division and evaluate to p_fail-compatible values.
func TestParametricClosedFormShape(t *testing.T) {
	asm := assembly.New("shape")
	leaf := model.NewSimple("leaf", []string{"p"}, nil, expr.Var("p"))
	if err := asm.AddService(leaf); err != nil {
		t.Fatal(err)
	}
	root := model.NewComposite("root", []string{"p"}, nil)
	flow := root.Flow()
	s0, err := flow.AddState("s0", model.AND, model.NoSharing)
	if err != nil {
		t.Fatal(err)
	}
	s0.AddRequest(model.Request{Role: "leaf", Params: []expr.Expr{expr.Var("p")}})
	for _, tr := range []struct {
		from, to string
		pr       float64
	}{
		{model.StartState, "s0", 1},
		{"s0", "s0", 0.25},
		{"s0", model.EndState, 0.75},
	} {
		if err := flow.AddTransitionP(tr.from, tr.to, tr.pr); err != nil {
			t.Fatal(err)
		}
	}
	if err := asm.AddService(root); err != nil {
		t.Fatal(err)
	}
	ca, err := CompileParametric(asm, Options{}, ParametricOptions{}, "root")
	if err != nil {
		t.Fatal(err)
	}
	form, ok := ca.ClosedForm("root")
	if !ok {
		t.Fatalf("no closed form: %v", ca.ParametricFallbacks())
	}
	if !strings.Contains(form, "/") {
		t.Errorf("closed form %q lacks the geometric-series division", form)
	}
	// Analytic: x0 = 0.75(1-p) / (1 - 0.25(1-p)), Pfail = 1 - x0.
	for _, p := range []float64{0, 0.01, 0.3, 0.9} {
		got, err := ca.Pfail("root", p)
		if err != nil {
			t.Fatal(err)
		}
		q := 1 - p
		want := 1 - 0.75*q/(1-0.25*q)
		if math.Abs(got-want) > 1e-14 {
			t.Errorf("p=%g: Pfail %v, analytic %v", p, got, want)
		}
	}
	if st := ca.ParametricStats(); st.ParametricPoints != 4 {
		t.Errorf("ParametricPoints = %d, want 4", st.ParametricPoints)
	}
}

// TestParametricNoFormErrors exercises the API surface for services
// without closed forms.
// TestParametricClosedFormRoundTrip checks that the printable closed form
// (the paper-shaped rendering, not the evaluation-lowered program) parses
// back and evaluates to the engine's own answer on the paper assemblies —
// so what -explain prints is exactly what the engine computes, and the
// lowering pass (const-base powers to exponentials, exp-product merging)
// is value-preserving.
func TestParametricClosedFormRoundTrip(t *testing.T) {
	p := assembly.DefaultPaperParams()
	for _, tc := range []struct {
		name  string
		build func(assembly.PaperParams) (*assembly.Assembly, error)
	}{
		{"local", assembly.LocalAssembly},
		{"remote", assembly.RemoteAssembly},
	} {
		asm, err := tc.build(p)
		if err != nil {
			t.Fatal(err)
		}
		ca, err := CompileParametric(asm, Options{}, ParametricOptions{}, "search")
		if err != nil {
			t.Fatal(err)
		}
		form, ok := ca.ClosedForm("search")
		if !ok {
			t.Fatalf("%s: no closed form: %v", tc.name, ca.ParametricFallbacks())
		}
		formals, _ := ca.FormalParams("search")
		prog, err := expr.CompileProgram(expr.MustParse(form), formals, nil)
		if err != nil {
			t.Fatalf("%s: reparsed form does not compile: %v", tc.name, err)
		}
		stack := make([]float64, prog.MaxStack())
		for _, list := range []float64{16, 4096, 1 << 20} {
			slots := []float64{1, list, 1}
			got, err := prog.Eval(slots, stack)
			if err != nil {
				t.Fatalf("%s list=%g: %v", tc.name, list, err)
			}
			want, err := ca.Pfail("search", slots...)
			if err != nil {
				t.Fatal(err)
			}
			// math.Pow's error grows with the exponent magnitude (here
			// ops ~ list·log2(list)), so the pow-shaped display form and
			// the exp-lowered engine program legitimately differ by up to
			// ~|y·ln c| ulps; 1e-9 bounds that across the Figure 6 range.
			scale := math.Max(math.Abs(want), 1e-12)
			if rel := math.Abs(got-want) / scale; rel > 1e-9 {
				t.Errorf("%s list=%g: reparsed form %g vs engine %g (rel %g)",
					tc.name, list, got, want, rel)
			}
		}
	}
}

func TestParametricNoFormErrors(t *testing.T) {
	asm := sensAssembly(t)
	plain, err := Compile(asm, Options{}, "root")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Sensitivities("root", 10); !errors.Is(err, ErrNoParametricForm) {
		t.Errorf("plain Compile Sensitivities error = %v, want ErrNoParametricForm", err)
	}
	if _, ok := plain.ClosedForm("root"); ok {
		t.Error("plain Compile exposed a closed form")
	}
	if plain.ParametricFallbacks() != nil {
		t.Error("plain Compile recorded fallbacks")
	}

	tight, err := CompileParametric(asm, Options{}, ParametricOptions{StateBound: 1}, "root")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tight.Sensitivities("root", 10); !errors.Is(err, ErrNoParametricForm) {
		t.Errorf("fallback Sensitivities error = %v, want ErrNoParametricForm", err)
	}
	if _, err := tight.Sensitivities("nope", 10); !errors.Is(err, model.ErrUnknownService) {
		t.Errorf("unknown service error = %v", err)
	}
	ca, err := CompileParametric(asm, Options{}, ParametricOptions{}, "root")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Sensitivities("root", 1, 2); !errors.Is(err, model.ErrArity) {
		t.Errorf("arity error = %v", err)
	}
	if _, err := ca.Sensitivities("leafA", 10); !errors.Is(err, ErrNoParametricForm) {
		t.Errorf("non-root Sensitivities error = %v, want ErrNoParametricForm", err)
	}
}

// TestParametricNodeBudgetFallback forces the node budget to trip and
// checks the service still evaluates correctly through the numeric kernel.
func TestParametricNodeBudgetFallback(t *testing.T) {
	asm := sensAssembly(t)
	ca, err := CompileParametric(asm, Options{}, ParametricOptions{MaxNodes: 2}, "root")
	if err != nil {
		t.Fatal(err)
	}
	st := ca.ParametricStats()
	if st.Fallbacks != 1 || st.Outputs != 0 {
		t.Fatalf("stats %+v, want 1 fallback", st)
	}
	reason := ca.ParametricFallbacks()["root"]
	if !errors.Is(reason, ErrNoParametricForm) || !strings.Contains(reason.Error(), "budget") {
		t.Errorf("fallback reason = %v, want node-budget ErrNoParametricForm", reason)
	}
	numeric, err := Compile(asm, Options{}, "root")
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{1, 100} {
		got, err := ca.Pfail("root", x)
		if err != nil {
			t.Fatal(err)
		}
		want, err := numeric.Pfail("root", x)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("x=%g: fallback %v != numeric %v", x, got, want)
		}
	}
}
