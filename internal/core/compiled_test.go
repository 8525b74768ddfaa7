package core

import (
	"errors"
	"math"
	"testing"

	"socrel/internal/assembly"
	"socrel/internal/expr"
	"socrel/internal/markov"
	"socrel/internal/model"
)

// paperAssemblies builds the paper's local and remote assemblies for the
// given failure rates.
func paperAssemblies(t *testing.T, phi1, gamma float64) map[string]*assembly.Assembly {
	t.Helper()
	p := assembly.DefaultPaperParams()
	p.Phi1, p.Gamma = phi1, gamma
	local, err := assembly.LocalAssembly(p)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := assembly.RemoteAssembly(p)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*assembly.Assembly{"local": local, "remote": remote}
}

func paperLists() []float64 {
	var lists []float64
	for e := 4; e <= 20; e++ {
		lists = append(lists, float64(int(1)<<e))
	}
	return lists
}

// TestCompiledMatchesInterpretedPaperGrid runs the full Figure 6 / T1
// closed-form grid (both assemblies, every phi1 x gamma, lists 2^4..2^20)
// through the compiled engine and requires agreement with the interpreted
// engine — and with the paper's symbolic closed forms — to 1e-12.
func TestCompiledMatchesInterpretedPaperGrid(t *testing.T) {
	for _, phi1 := range assembly.Figure6Phi1 {
		for _, gamma := range append([]float64{5e-3, 5e-2, 1e-1}, assembly.Figure6Gamma...) {
			p := assembly.DefaultPaperParams()
			p.Phi1, p.Gamma = phi1, gamma
			for name, asm := range paperAssemblies(t, phi1, gamma) {
				ca, err := Compile(asm, Options{}, "search")
				if err != nil {
					t.Fatalf("Compile(%s): %v", name, err)
				}
				for _, list := range paperLists() {
					got, err := ca.Pfail("search", 1, list, 1)
					if err != nil {
						t.Fatalf("%s list=%g: %v", name, list, err)
					}
					// The interpreted oracle: Pfail_Alg evaluated afresh.
					want, err := New(asm, Options{}).Pfail("search", 1, list, 1)
					if err != nil {
						t.Fatalf("%s list=%g interpreted: %v", name, list, err)
					}
					if math.Abs(got-want) > 1e-12 {
						t.Errorf("%s phi1=%g gamma=%g list=%g: compiled %.17g vs interpreted %.17g",
							name, phi1, gamma, list, got, want)
					}
					closed := assembly.ClosedFormSearch(p, name == "remote", 1, list, 1)
					if math.Abs(got-closed) > 1e-12 {
						t.Errorf("%s phi1=%g gamma=%g list=%g: compiled %.17g vs closed form %.17g",
							name, phi1, gamma, list, got, closed)
					}
				}
			}
		}
	}
}

// TestCompileFlowValidation: defective constant flows are rejected at
// compile time with an error naming the service and state, instead of
// surfacing as ErrBadTransition mid-evaluation.
func TestCompileFlowValidation(t *testing.T) {
	leaf := model.NewConstant("leaf", 0.1)

	t.Run("probability outside [0,1]", func(t *testing.T) {
		c := model.NewComposite("badprob", nil, nil)
		st, err := c.Flow().AddState("work", model.AND, model.NoSharing)
		if err != nil {
			t.Fatal(err)
		}
		st.AddRequest(model.Request{Role: "leaf"})
		if err := c.Flow().AddTransitionP(model.StartState, "work", 1.3); err != nil {
			t.Fatal(err)
		}
		if err := c.Flow().AddTransitionP("work", model.EndState, 1); err != nil {
			t.Fatal(err)
		}
		asm := newAssembly(t, leaf, c)
		_, err = Compile(asm, Options{}, "badprob")
		if !errors.Is(err, model.ErrInvalidService) {
			t.Fatalf("Compile error = %v, want ErrInvalidService", err)
		}
		for _, want := range []string{"badprob", "Start"} {
			if !contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
	})

	t.Run("outgoing sum above one", func(t *testing.T) {
		c := model.NewComposite("badsum", nil, nil)
		st, err := c.Flow().AddState("work", model.AND, model.NoSharing)
		if err != nil {
			t.Fatal(err)
		}
		st.AddRequest(model.Request{Role: "leaf"})
		if err := c.Flow().AddTransitionP(model.StartState, "work", 0.7); err != nil {
			t.Fatal(err)
		}
		if err := c.Flow().AddTransitionP(model.StartState, model.EndState, 0.5); err != nil {
			t.Fatal(err)
		}
		if err := c.Flow().AddTransitionP("work", model.EndState, 1); err != nil {
			t.Fatal(err)
		}
		asm := newAssembly(t, leaf, c)
		_, err = Compile(asm, Options{}, "badsum")
		if !errors.Is(err, model.ErrInvalidService) {
			t.Fatalf("Compile error = %v, want ErrInvalidService", err)
		}
		for _, want := range []string{"badsum", "Start"} {
			if !contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
	})
}

// TestCompileRejectsUnsupportedOptions: policies the compiled engine does
// not implement are rejected with ErrNotCompilable.
func TestCompileRejectsUnsupportedOptions(t *testing.T) {
	asm := newAssembly(t, model.NewConstant("leaf", 0.1))
	if _, err := Compile(asm, Options{Cycles: CycleFixedPoint}, "leaf"); !errors.Is(err, ErrNotCompilable) {
		t.Errorf("CycleFixedPoint: error = %v, want ErrNotCompilable", err)
	}
	if _, err := Compile(asm, Options{Method: markov.MethodIterative}, "leaf"); !errors.Is(err, ErrNotCompilable) {
		t.Errorf("MethodIterative: error = %v, want ErrNotCompilable", err)
	}
	if _, err := Compile(asm, Options{}); !errors.Is(err, ErrNotCompilable) {
		t.Errorf("no roots: error = %v, want ErrNotCompilable", err)
	}
}

// TestCompileRejectsRecursiveAssembly mirrors the interpreted engine's
// cycle rejection, moved to compile time.
func TestCompileRejectsRecursiveAssembly(t *testing.T) {
	a := model.NewComposite("a", nil, nil)
	st, err := a.Flow().AddState("s", model.AND, model.NoSharing)
	if err != nil {
		t.Fatal(err)
	}
	st.AddRequest(model.Request{Role: "b"})
	if err := a.Flow().AddTransitionP(model.StartState, "s", 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Flow().AddTransitionP("s", model.EndState, 1); err != nil {
		t.Fatal(err)
	}
	b := model.NewComposite("b", nil, nil)
	st2, err := b.Flow().AddState("s", model.AND, model.NoSharing)
	if err != nil {
		t.Fatal(err)
	}
	st2.AddRequest(model.Request{Role: "a"})
	if err := b.Flow().AddTransitionP(model.StartState, "s", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Flow().AddTransitionP("s", model.EndState, 1); err != nil {
		t.Fatal(err)
	}
	asm := newAssembly(t, a, b)
	if _, err := Compile(asm, Options{}, "a"); !errors.Is(err, ErrRecursiveAssembly) {
		t.Fatalf("error = %v, want ErrRecursiveAssembly", err)
	}
}

// TestCompiledRuntimeBadTransition: parameter-dependent transitions are
// still range-checked per evaluation in the compiled engine.
func TestCompiledRuntimeBadTransition(t *testing.T) {
	c := model.NewComposite("app", []string{"p"}, nil)
	st, err := c.Flow().AddState("work", model.AND, model.NoSharing)
	if err != nil {
		t.Fatal(err)
	}
	st.AddRequest(model.Request{Role: "leaf"})
	if err := c.Flow().AddTransition(model.StartState, "work", expr.Var("p")); err != nil {
		t.Fatal(err)
	}
	if err := c.Flow().AddTransition(model.StartState, model.EndState, expr.MustParse("1 - p")); err != nil {
		t.Fatal(err)
	}
	if err := c.Flow().AddTransitionP("work", model.EndState, 1); err != nil {
		t.Fatal(err)
	}
	asm := newAssembly(t, model.NewConstant("leaf", 0.25), c)
	ca, err := Compile(asm, Options{}, "app")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Pfail("app", 0.5); err != nil {
		t.Fatalf("valid probability: %v", err)
	}
	if _, err := ca.Pfail("app", 1.7); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("error = %v, want ErrBadTransition", err)
	}
}

// TestCompiledBatchAndMemo: PfailBatch matches point-by-point Pfail
// bitwise, and a repeat query, which recomputes the point from scratch,
// returns the identical bits.
func TestCompiledBatchAndMemo(t *testing.T) {
	asm := paperAssemblies(t, 5e-6, 5e-2)["remote"]
	ca, err := Compile(asm, Options{}, "search")
	if err != nil {
		t.Fatal(err)
	}
	var sets [][]float64
	for _, list := range paperLists() {
		sets = append(sets, []float64{1, list, 1})
	}
	batch, err := ca.PfailBatch("search", sets)
	if err != nil {
		t.Fatal(err)
	}
	for i, ps := range sets {
		p1, err := ca.Pfail("search", ps...)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != p1 {
			t.Errorf("point %d: batch %.17g != Pfail %.17g", i, batch[i], p1)
		}
		p2, err := ca.Pfail("search", ps...)
		if err != nil {
			t.Fatal(err)
		}
		if p1 != p2 {
			t.Errorf("point %d: repeat query %.17g != first %.17g", i, p2, p1)
		}
	}
}

// TestCompiledErrors covers the compiled engine's argument checking.
func TestCompiledErrors(t *testing.T) {
	asm := paperAssemblies(t, 1e-6, 5e-2)["local"]
	ca, err := Compile(asm, Options{}, "search")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Pfail("nope"); !errors.Is(err, model.ErrUnknownService) {
		t.Errorf("unknown service: error = %v, want ErrUnknownService", err)
	}
	if _, err := ca.Pfail("search", 1); !errors.Is(err, model.ErrArity) {
		t.Errorf("arity: error = %v, want ErrArity", err)
	}
	if _, err := ca.PfailBatch("nope", [][]float64{{1}}); !errors.Is(err, model.ErrUnknownService) {
		t.Errorf("batch unknown service: error = %v, want ErrUnknownService", err)
	}
}
