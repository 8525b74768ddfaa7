package expr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// numericDeriv computes a central finite difference of e at env with respect
// to name.
func numericDeriv(t *testing.T, e Expr, env Env, name string) float64 {
	t.Helper()
	h := 1e-6 * math.Max(math.Abs(env[name]), 1)
	up := env.Clone()
	up[name] += h
	dn := env.Clone()
	dn[name] -= h
	vu, err := e.Eval(up)
	if err != nil {
		t.Fatalf("Eval up: %v", err)
	}
	vd, err := e.Eval(dn)
	if err != nil {
		t.Fatalf("Eval dn: %v", err)
	}
	return (vu - vd) / (2 * h)
}

func TestDiffMatchesFiniteDifference(t *testing.T) {
	env := Env{"x": 1.3, "y": 2.7, "n": 50}
	tests := []string{
		"x",
		"y",
		"3",
		"x + y",
		"x - y",
		"x * y",
		"x / y",
		"x ^ 3",
		"x ^ y",
		"-x * y",
		"exp(-x)",
		"log(x)",
		"log2(x)",
		"log10(x)",
		"sqrt(x)",
		"pow(x, 2)",
		"1 - exp(-x * n / 10)",
		"(1 - x / 10) ^ n",
		"x * log2(x)",
		"exp(-x) * (1 - y / 10) ^ 2",
	}
	for _, src := range tests {
		t.Run(src, func(t *testing.T) {
			e := MustParse(src)
			d := e.Diff("x")
			got, err := d.Eval(env)
			if err != nil {
				t.Fatalf("Eval derivative %q: %v", d, err)
			}
			want := numericDeriv(t, e, env, "x")
			if math.Abs(got-want) > 1e-4*math.Max(math.Abs(want), 1) {
				t.Errorf("d/dx %q = %g, want ≈ %g (symbolic: %s)", src, got, want, d)
			}
		})
	}
}

func TestDiffOfOtherVariableIsZero(t *testing.T) {
	e := MustParse("exp(-x) + x ^ 2")
	d := Simplify(e.Diff("unrelated"))
	v, err := d.Eval(nil)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if v != 0 {
		t.Errorf("d/d(unrelated) = %v (%g), want 0", d, v)
	}
}

func TestDiffNonDifferentiableIsNaN(t *testing.T) {
	for _, src := range []string{"abs(x)", "floor(x)", "ceil(x)", "min(x, 1)", "max(x, 1)"} {
		e := MustParse(src)
		v, err := e.Diff("x").Eval(Env{"x": 2})
		if err != nil {
			t.Fatalf("Eval diff of %q: %v", src, err)
		}
		if !math.IsNaN(v) {
			t.Errorf("diff of %q = %g, want NaN marker", src, v)
		}
	}
}

func TestSimplify(t *testing.T) {
	tests := []struct {
		src, want string
	}{
		{"x + 0", "x"},
		{"0 + x", "x"},
		{"x - 0", "x"},
		{"0 - x", "-x"},
		{"x * 1", "x"},
		{"1 * x", "x"},
		{"x * 0", "0"},
		{"0 * x", "0"},
		{"0 / x", "0"},
		{"x / 1", "x"},
		{"x ^ 1", "x"},
		{"x ^ 0", "1"},
		{"1 ^ x", "1"},
		{"1 + 2", "3"},
		{"2 * 3 + 4", "10"},
		{"exp(0)", "1"},
		{"log(1)", "0"},
		{"sqrt(4) * x", "2 * x"},
		{"--x", "x"},
		{"-(3)", "(-3)"},
		{"(1 - 1) * log(x)", "0"},
		// Constant-shift gathering through nested +/- chains.
		{"1 - (1 - x)", "x"},
		{"1 - (1 - (1 - (1 - x)))", "x"},
		{"2 - (1 - x)", "1 + x"},
		{"3 - (x - 1)", "4 - x"},
		{"2 + (x + 3)", "5 + x"},
		{"2 + (x - 3)", "(-1) + x"},
		{"(1 - x) - 1", "-x"},
		{"(x + 5) - 5", "x"},
		// Neg normalization into +/-.
		{"x + -y", "x - y"},
		{"-x + y", "y - x"},
		{"x - -y", "x + y"},
		// Constant-factor gathering through products and quotients.
		{"3 * (2 * x)", "6 * x"},
		{"(x * 2) * 3", "6 * x"},
		{"2 * (4 / x)", "8 / x"},
		// Rational-form normalization.
		{"(x / 2) / 3", "x / 6"},
		{"x / (y / z)", "x * z / y"},
		{"4 / (x / 2)", "8 / x"},
		{"(x / y) / z", "x / (y * z)"},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			got := Simplify(MustParse(tt.src)).String()
			if got != tt.want {
				t.Errorf("Simplify(%q) = %q, want %q", tt.src, got, tt.want)
			}
		})
	}
}

// TestSimplifyPreservesValue is a property test: simplification never changes
// the value of an expression on environments where both are defined.
func TestSimplifyPreservesValue(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	gen := func() Expr { return randomExpr(rng, 4) }
	f := func() bool {
		e := gen()
		env := Env{"x": rng.Float64()*4 + 0.1, "y": rng.Float64()*4 + 0.1, "z": rng.Float64()*4 + 0.1}
		v1, err1 := e.Eval(env)
		s := Simplify(e)
		v2, err2 := s.Eval(env)
		if err1 != nil {
			// Simplification may extend the domain; nothing to compare.
			return true
		}
		if err2 != nil {
			return false
		}
		return almostEqual(v1, v2) || (math.IsNaN(v1) && math.IsNaN(v2)) ||
			(math.IsInf(v1, 0) && v1 == v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestBindThenEval is a property test: binding a subset of variables then
// evaluating with the rest equals evaluating with the full environment.
func TestBindThenEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		e := randomExpr(rng, 4)
		full := Env{"x": rng.Float64()*3 + 0.2, "y": rng.Float64()*3 + 0.2, "z": rng.Float64()*3 + 0.2}
		v1, err1 := e.Eval(full)
		if err1 != nil {
			return true
		}
		partial := Bind(e, Env{"x": full["x"]})
		v2, err2 := partial.Eval(Env{"y": full["y"], "z": full["z"]})
		if err2 != nil {
			return false
		}
		return almostEqual(v1, v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// randomExpr builds a random expression over x, y, z with the given depth.
func randomExpr(rng *rand.Rand, depth int) Expr {
	if depth == 0 {
		switch rng.Intn(4) {
		case 0:
			return Num(math.Floor(rng.Float64()*10) / 2)
		case 1:
			return Var("x")
		case 2:
			return Var("y")
		default:
			return Var("z")
		}
	}
	switch rng.Intn(8) {
	case 0:
		return Add(randomExpr(rng, depth-1), randomExpr(rng, depth-1))
	case 1:
		return Sub(randomExpr(rng, depth-1), randomExpr(rng, depth-1))
	case 2:
		return Mul(randomExpr(rng, depth-1), randomExpr(rng, depth-1))
	case 3:
		return Div(randomExpr(rng, depth-1), randomExpr(rng, depth-1))
	case 4:
		return Pow(randomExpr(rng, depth-1), Num(float64(rng.Intn(3))))
	case 5:
		return &Neg{X: randomExpr(rng, depth-1)}
	case 6:
		return Call1("exp", &Neg{X: Call1("abs", randomExpr(rng, depth-1))})
	default:
		return Call1("sqrt", Call1("abs", randomExpr(rng, depth-1)))
	}
}

func TestDiffStringParseable(t *testing.T) {
	// Derivatives must render to parseable source (used by the ADL when
	// exporting sensitivity expressions).
	for _, src := range []string{"x * log2(x)", "exp(-l * n / s)", "(1 - phi) ^ n"} {
		e := MustParse(src)
		for _, v := range Vars(e) {
			d := Simplify(e.Diff(v))
			if _, err := Parse(d.String()); err != nil {
				t.Errorf("derivative of %q wrt %s renders unparseable %q: %v", src, v, d, err)
			}
		}
	}
}

// TestBindIsSimplified: Bind already simplifies, so a second Simplify
// finds nothing left to fold; a caller that needs the bound constant
// (Composite.Validate's static probability checks) needs no outer call.
func TestBindIsSimplified(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		e := randomExpr(rng, 5)
		env := Env{"x": rng.Float64()*3 + 0.2}
		if i%2 == 0 {
			env["y"] = rng.Float64()*3 + 0.2
			env["z"] = rng.Float64()*3 + 0.2
		}
		bound := Bind(e, env)
		if again := Simplify(bound); again.String() != bound.String() {
			t.Fatalf("Simplify(Bind(%s)) = %s, Bind gave %s", e, again, bound)
		}
	}
}
