package core_test

// Resilience tests: cancellation, panic isolation, fallback observability,
// solver-budget errors, and evaluation-path reporting — the contracts that
// keep a long-running prediction service alive when a model misbehaves.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"socrel/internal/assembly"
	"socrel/internal/core"
	"socrel/internal/expr"
	"socrel/internal/faultinject"
	"socrel/internal/linalg"
	"socrel/internal/markov"
	"socrel/internal/model"
)

// ctHook holds a func() the ct_hook builtin invokes on every evaluation,
// letting a test cancel a context from inside a failure law.
var ctHook atomic.Value

func init() {
	ctHook.Store(func() {})
	if err := expr.RegisterBuiltin("ct_hook", 1, func(args []float64) (float64, error) {
		ctHook.Load().(func())()
		return 0.1, nil
	}); err != nil {
		panic(err)
	}
}

// chainAssembly returns an assembly whose root is a linear composite of
// the given number of states, each requesting one constant leaf service.
func chainAssembly(t *testing.T, root string, states int) *assembly.Assembly {
	t.Helper()
	asm := assembly.New(root + "-asm")
	asm.MustAddService(model.NewConstant("Leaf", 0.01))
	c := model.NewComposite(root, nil, nil)
	flow := c.Flow()
	prev := model.StartState
	for i := 0; i < states; i++ {
		name := fmt.Sprintf("S%d", i)
		st, err := flow.AddState(name, model.AND, model.NoSharing)
		if err != nil {
			t.Fatal(err)
		}
		st.AddRequest(model.Request{Role: "Leaf"})
		if err := flow.AddTransitionP(prev, name, 1); err != nil {
			t.Fatal(err)
		}
		prev = name
	}
	if err := flow.AddTransitionP(prev, model.EndState, 1); err != nil {
		t.Fatal(err)
	}
	asm.MustAddService(c)
	return asm
}

func TestPfailCtxPreCanceled(t *testing.T) {
	asm := chainAssembly(t, "Root", 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := core.New(asm, core.Options{}).PfailCtx(ctx, "Root"); !errors.Is(err, core.ErrCanceled) {
		t.Errorf("interpreted: err = %v, want core.ErrCanceled", err)
	}

	ca, err := core.Compile(asm, core.Options{}, "Root")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.PfailCtx(ctx, "Root"); !errors.Is(err, core.ErrCanceled) {
		t.Errorf("compiled: err = %v, want core.ErrCanceled", err)
	}
}

// TestBatchCancellationMidFlight cancels the context from inside the first
// evaluated point's failure law and checks that the batch stops at the
// next point boundary instead of grinding through all 256 points.
func TestBatchCancellationMidFlight(t *testing.T) {
	asm := assembly.New("cancel")
	asm.MustAddService(model.NewSimple("CSvc", []string{"N"}, nil, expr.MustParse("ct_hook(N)")))
	ca, err := core.Compile(asm, core.Options{}, "CSvc")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctHook.Store(func() { cancel() })
	defer ctHook.Store(func() {})

	const n = 256
	sets := make([][]float64, n)
	for i := range sets {
		sets[i] = []float64{float64(i + 1)}
	}
	out, err := ca.PfailBatchCtx(ctx, "CSvc", sets)
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want core.ErrCanceled", err)
	}
	if len(out) != n {
		t.Fatalf("len(out) = %d, want %d (partial results with NaN holes)", len(out), n)
	}
	nonNaN := 0
	for _, p := range out {
		if !math.IsNaN(p) {
			nonNaN++
		}
	}
	// Each worker checks ctx before claiming a point, so after the cancel
	// at most one in-flight point per worker can still complete.
	if limit := 2*runtime.GOMAXPROCS(0) + 2; nonNaN > limit {
		t.Errorf("%d points completed after the cancel, want <= %d", nonNaN, limit)
	}
}

// TestBatchPanicIsolation seeds a failure law that panics for three of
// sixteen batch points and checks that the siblings still evaluate.
func TestBatchPanicIsolation(t *testing.T) {
	asm := assembly.New("panic")
	asm.MustAddService(model.NewSimple("PSvc", []string{"N"}, nil, expr.MustParse("fi_panic(N - 13)")))
	ca, err := core.Compile(asm, core.Options{}, "PSvc")
	if err != nil {
		t.Fatal(err)
	}

	const n = 16
	sets := make([][]float64, n)
	for i := range sets {
		sets[i] = []float64{float64(i + 1)} // points 13..15 (N = 14..16) panic
	}
	out, err := ca.PfailBatchCtx(context.Background(), "PSvc", sets)
	if !errors.Is(err, core.ErrPanic) {
		t.Fatalf("err = %v, want core.ErrPanic", err)
	}
	var pe *core.PanicError
	if !errors.As(err, &pe) || len(pe.Stack) == 0 {
		t.Errorf("err = %v, want a *core.PanicError carrying a stack trace", err)
	}
	if !strings.Contains(err.Error(), "batch point 13") {
		t.Errorf("err = %v, want the lowest panicking point (13) reported", err)
	}
	for i, p := range out {
		if i >= 13 {
			if !math.IsNaN(p) {
				t.Errorf("out[%d] = %g, want NaN for a panicked point", i, p)
			}
			continue
		}
		if math.Abs(p-0.05) > 1e-15 {
			t.Errorf("out[%d] = %g, want 0.05 (sibling of a panicked point must evaluate)", i, p)
		}
	}
}

// TestIterativeBudgetExhausted (satellite S1): a starved iteration budget
// surfaces ErrNoConvergence carrying the sweep count and residual.
func TestIterativeBudgetExhausted(t *testing.T) {
	asm := chainAssembly(t, "Chain", 10)
	ev := core.New(asm, core.Options{Method: markov.MethodIterative, IterMaxIter: 1})
	_, err := ev.Pfail("Chain")
	if !errors.Is(err, core.ErrNoConvergence) {
		t.Fatalf("err = %v, want core.ErrNoConvergence", err)
	}
	var nc *linalg.NoConvergenceError
	if !errors.As(err, &nc) {
		t.Fatalf("err = %v, want a *linalg.NoConvergenceError in the chain", err)
	}
	if nc.Iterations != 1 || !(nc.Residual > 0) {
		t.Errorf("NoConvergenceError = %+v, want Iterations 1 and a positive residual", nc)
	}

	// A workable budget succeeds with the same configuration.
	ev2 := core.New(asm, core.Options{Method: markov.MethodIterative, IterMaxIter: 10000})
	if _, err := ev2.Pfail("Chain"); err != nil {
		t.Errorf("budgeted solve failed: %v", err)
	}
}

// TestEvalErrorPath: a defect two composites deep reports the full
// service/state path from the evaluation root to the defective request.
func TestEvalErrorPath(t *testing.T) {
	oneState := func(name, state, role string) *model.Composite {
		c := model.NewComposite(name, nil, nil)
		st, err := c.Flow().AddState(state, model.AND, model.NoSharing)
		if err != nil {
			t.Fatal(err)
		}
		st.AddRequest(model.Request{Role: role})
		if err := c.Flow().AddTransitionP(model.StartState, state, 1); err != nil {
			t.Fatal(err)
		}
		if err := c.Flow().AddTransitionP(state, model.EndState, 1); err != nil {
			t.Fatal(err)
		}
		return c
	}
	asm := assembly.New("paths")
	asm.MustAddService(faultinject.NaNAttribute("Leaf"))
	asm.MustAddService(oneState("Mid", "Inner", "Leaf"))
	asm.MustAddService(oneState("Root", "Work", "Mid"))

	_, err := core.New(asm, core.Options{}).Pfail("Root")
	if !errors.Is(err, core.ErrNonFinite) {
		t.Fatalf("err = %v, want core.ErrNonFinite", err)
	}
	var ee *core.EvalError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want a *core.EvalError in the chain", err)
	}
	want := []string{"Root", "state:Work", "Mid", "state:Inner"}
	if !reflect.DeepEqual(ee.Path, want) {
		t.Errorf("EvalError.Path = %v, want %v", ee.Path, want)
	}
}
