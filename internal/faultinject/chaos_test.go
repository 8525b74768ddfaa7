package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"socrel/internal/assembly"
	"socrel/internal/core"
	"socrel/internal/expr"
	"socrel/internal/markov"
	"socrel/internal/model"
)

// isTaxonomy reports whether err matches the documented error taxonomy of
// the evaluation engine (DESIGN.md §8): every failure a chaos evaluation
// produces must be one of these classes — never an unclassified error,
// never a panic, never a silent NaN success.
func isTaxonomy(err error) bool {
	for _, sentinel := range []error{
		core.ErrCanceled,
		core.ErrNonFinite,
		core.ErrNoConvergence,
		core.ErrUnresolvedBinding,
		core.ErrDefectiveFlow,
		core.ErrNotCompilable,
		core.ErrPanic,
		model.ErrUnknownService,
		model.ErrInvalidService,
		model.ErrArity,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// Defect kinds the random generator can seed into an assembly.
const (
	defNone = iota
	defNaNAttr
	defInfLaw
	defBadCtor
	defPanicLaw
	defRowSum
	defUnreachable
	defMissingProvider
	defCount
)

// randomAssembly builds a small random assembly rooted at a composite with
// one formal parameter N, optionally seeding one defect. The defective
// service (when any) is always requested by the first working state, so
// the defect is on the evaluation path.
func randomAssembly(rng *rand.Rand, defect int) (*assembly.Assembly, string) {
	asm := assembly.New("chaos")
	nProv := 2 + rng.Intn(3)
	names := make([]string, 0, nProv)
	arity := make(map[string]int)
	for i := 0; i < nProv; i++ {
		name := fmt.Sprintf("P%d", i)
		if i == 0 {
			switch defect {
			case defNaNAttr:
				asm.MustAddService(NaNAttribute(name))
				arity[name] = 0
			case defInfLaw:
				asm.MustAddService(InfLaw(name))
				arity[name] = 1
			case defBadCtor:
				asm.MustAddService(BadConstructor(name))
				arity[name] = 1
			case defPanicLaw:
				asm.MustAddService(PanicLaw(name))
				arity[name] = 1
			case defRowSum:
				asm.MustAddService(RowSumComposite(name))
				arity[name] = 0
			case defUnreachable:
				asm.MustAddService(UnreachableEndComposite(name))
				arity[name] = 0
			case defMissingProvider:
				asm.MustAddService(MissingProviderComposite(name))
				arity[name] = 0
			default:
				asm.MustAddService(model.NewConstant(name, rng.Float64()*0.2))
				arity[name] = 0
			}
			names = append(names, name)
			continue
		}
		switch rng.Intn(3) {
		case 0:
			asm.MustAddService(model.NewCPU(name, 1+rng.Float64()*100, rng.Float64()*0.01))
			arity[name] = 1
		case 1:
			asm.MustAddService(model.NewConstant(name, rng.Float64()*0.2))
			arity[name] = 0
		default:
			asm.MustAddService(model.NewNetwork(name, 1+rng.Float64()*1000, rng.Float64()*0.01))
			arity[name] = 1
		}
		names = append(names, name)
	}

	root := model.NewComposite("Root", []string{"N"}, nil)
	flow := root.Flow()
	nStates := 1 + rng.Intn(3)
	prev := model.StartState
	for s := 0; s < nStates; s++ {
		sname := fmt.Sprintf("S%d", s)
		completion := model.AND
		if rng.Intn(3) == 0 {
			completion = model.OR
		}
		st, err := flow.AddState(sname, completion, model.NoSharing)
		if err != nil {
			panic(err)
		}
		nReq := 1 + rng.Intn(2)
		for q := 0; q < nReq; q++ {
			p := names[rng.Intn(len(names))]
			if s == 0 && q == 0 && defect != defNone {
				p = names[0] // put the defect on the evaluation path
			}
			var params []expr.Expr
			if arity[p] == 1 {
				params = []expr.Expr{expr.Var("N")}
			}
			st.AddRequest(model.Request{Role: p, Params: params})
		}
		if err := flow.AddTransitionP(prev, sname, 1); err != nil {
			panic(err)
		}
		prev = sname
	}
	if err := flow.AddTransitionP(prev, model.EndState, 1); err != nil {
		panic(err)
	}
	asm.MustAddService(root)
	return asm, root.Name()
}

// TestChaosRandomized drives both engines through well over a thousand
// evaluations of randomized assemblies under randomized fault injection
// (hidden services, transient lookup and binding failures, seeded model
// defects, cancellations, starved iteration budgets). The invariants: no
// evaluation panics or hangs, every failure matches the typed taxonomy,
// and every success is a finite probability in [0, 1].
func TestChaosRandomized(t *testing.T) {
	const rounds = 140
	const points = 8
	evals := 0
	checkValue := func(round, pt int, p float64) {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 || p > 1 {
			t.Fatalf("round %d point %d: successful evaluation returned %g, want a probability", round, pt, p)
		}
	}
	checkErr := func(round, pt int, err error) {
		if !isTaxonomy(err) {
			t.Fatalf("round %d point %d: error outside the taxonomy: %v", round, pt, err)
		}
	}
	for round := 0; round < rounds; round++ {
		rng := rand.New(rand.NewSource(int64(round)*7919 + 1))
		defect := rng.Intn(defCount)
		asm, root := randomAssembly(rng, defect)

		fiOpts := Options{Seed: int64(round), ExemptServices: []string{root}}
		if rng.Intn(2) == 0 {
			fiOpts.LookupFailureRate = 0.05
		}
		if rng.Intn(2) == 0 {
			fiOpts.BindFailureRate = 0.05
		}
		if rng.Intn(5) == 0 {
			fiOpts.MissingServices = []string{fmt.Sprintf("P%d", rng.Intn(2))}
		}
		res := Wrap(asm, fiOpts)

		var opts core.Options
		if rng.Intn(4) == 0 {
			opts.Method = markov.MethodIterative
			if rng.Intn(2) == 0 {
				opts.IterMaxIter = 1 // starve the solver to provoke ErrNoConvergence
			}
		}

		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		if round%10 == 9 {
			cancel() // pre-canceled round: everything must surface ErrCanceled
		}

		if rng.Intn(3) == 2 {
			// Compiled engine with the concurrent batch pool.
			ca, err := core.Compile(res, opts, root)
			if err != nil {
				checkErr(round, -1, err)
			} else {
				sets := make([][]float64, points)
				for pt := range sets {
					sets[pt] = []float64{0.5 + rng.Float64()*99}
				}
				out, err := ca.PfailBatchCtx(ctx, root, sets)
				evals += points
				if err != nil {
					checkErr(round, -1, err)
				}
				if len(out) != points {
					t.Fatalf("round %d: batch returned %d results, want %d", round, len(out), points)
				}
				for pt, p := range out {
					if math.IsNaN(p) {
						continue // failed or skipped point
					}
					checkValue(round, pt, p)
				}
				cancel()
				continue
			}
		}
		// Interpreted engine.
		ev := core.New(res, opts)
		for pt := 0; pt < points; pt++ {
			p, err := ev.PfailCtx(ctx, root, 0.5+rng.Float64()*99)
			evals++
			if err != nil {
				checkErr(round, pt, err)
				continue
			}
			checkValue(round, pt, p)
		}
		cancel()
	}
	if evals < 1000 {
		t.Fatalf("chaos suite ran %d evaluations, want >= 1000", evals)
	}
	t.Logf("chaos suite: %d evaluations", evals)
}

// TestDefectClasses pins each seeded defect to its taxonomy class on both
// engines.
func TestDefectClasses(t *testing.T) {
	cases := []struct {
		name   string
		svc    model.Service
		params []float64
		want   error
	}{
		{"nan-attribute", NaNAttribute("D"), nil, core.ErrNonFinite},
		{"inf-law", InfLaw("D"), []float64{3}, core.ErrNonFinite},
		{"bad-constructor", BadConstructor("D"), []float64{3}, model.ErrInvalidService},
		{"panic-law", PanicLaw("D"), []float64{3}, core.ErrPanic},
		{"row-sum", RowSumComposite("D"), nil, core.ErrDefectiveFlow},
		{"unreachable-end", UnreachableEndComposite("D"), nil, core.ErrDefectiveFlow},
		{"missing-provider", MissingProviderComposite("D"), nil, core.ErrUnresolvedBinding},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			asm := assembly.New("defect")
			asm.MustAddService(tc.svc)

			if _, err := core.New(asm, core.Options{}).Pfail("D", tc.params...); !errors.Is(err, tc.want) {
				t.Errorf("interpreted: got %v, want errors.Is(err, %v)", err, tc.want)
			}

			// Compiled engine: the defect surfaces either at Compile time or
			// at evaluation time, but always in the same class.
			ca, err := core.Compile(asm, core.Options{}, "D")
			if err == nil {
				_, err = ca.Pfail("D", tc.params...)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("compiled: got %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
}

// TestWrapInjection pins the wrapper's own behavior: hidden services,
// deterministic rates, the injected-fault marker, and the exemption list.
func TestWrapInjection(t *testing.T) {
	asm := assembly.New("base")
	asm.MustAddService(model.NewConstant("A", 0.1))
	asm.MustAddService(model.NewConstant("B", 0.2))

	res := Wrap(asm, Options{MissingServices: []string{"B"}, ExemptServices: []string{"A"}})
	if _, err := res.ServiceByName("A"); err != nil {
		t.Fatalf("exempt service failed: %v", err)
	}
	_, err := res.ServiceByName("B")
	if !errors.Is(err, ErrInjected) || !errors.Is(err, model.ErrUnknownService) {
		t.Fatalf("hidden service: got %v, want ErrInjected wrapping ErrUnknownService", err)
	}
	if res.Injected() != 1 {
		t.Fatalf("Injected() = %d, want 1", res.Injected())
	}

	all := Wrap(asm, Options{LookupFailureRate: 1, BindFailureRate: 1})
	if _, err := all.ServiceByName("A"); !errors.Is(err, ErrInjected) {
		t.Fatalf("rate-1 lookup: got %v, want ErrInjected", err)
	}
	_, _, err = all.Bind("X", "r")
	if !errors.Is(err, ErrInjected) || errors.Is(err, model.ErrNoBinding) {
		t.Fatalf("rate-1 bind: got %v, want injected non-ErrNoBinding", err)
	}
}
