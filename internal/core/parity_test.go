package core

// Randomized cross-engine parity: the compiled engine and the interpreted
// engine (the parity oracle) must agree on arbitrary valid flows — acyclic
// and cyclic, with absorbing self-loop traps, partial self-loops, and
// zero-probability edges — not just on the paper's assemblies. The two
// take different (mathematically equivalent) solve routes and are held to
// 1e-12. PfailBatch runs each point through the single-point kernel, so a
// batch is held to bitwise equality with Pfail.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"socrel/internal/assembly"
	"socrel/internal/expr"
	"socrel/internal/model"
)

// randomFlowAssembly builds a random, always-valid assembly around one
// composite "root(x)": a handful of leaf services (parametric law,
// constant, rational law), m working states with random AND/OR/KOfN
// completion and random requests, and a transition structure drawn to
// cover the solver's classification cases:
//
//   - forward edges and a guaranteed End edge per state (DAG base case),
//   - back-edges with ~1/2 probability (cyclic SCCs, block solve),
//   - partial self-loops (the singleton 1/(1-p) fast path),
//   - an absorbing trap state with a probability-one self-loop,
//   - explicit zero-probability edges.
//
// Constant rows are built from integer weights so every row sums to one
// within float rounding, keeping the flow inside the engines' 1e-9 row-sum
// tolerance by construction.
func randomFlowAssembly(rng *rand.Rand) (*assembly.Assembly, error) {
	asm := assembly.New("random-parity")
	leafA := model.NewSimple("leafA", []string{"n"}, model.Attrs{"phi": 1e-5},
		expr.MustParse("1 - (1 - phi) ^ n"))
	leafC := model.NewSimple("leafC", []string{"n"}, nil,
		expr.MustParse("n / (n + 1000)"))
	for _, svc := range []model.Service{
		leafA,
		model.NewConstant("leafB", 0.001+0.01*rng.Float64()),
		leafC,
		model.NewConstant("conn", 0.002+0.005*rng.Float64()),
	} {
		if err := asm.AddService(svc); err != nil {
			return nil, err
		}
	}

	root := model.NewComposite("root", []string{"x"}, nil)
	flow := root.Flow()
	m := 3 + rng.Intn(4) // working states s0..s{m-1}
	hasTrap := rng.Intn(2) == 0
	trap := -1
	if hasTrap {
		trap = m - 1
	}
	names := make([]string, m)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	paramFor := func(role string) []expr.Expr {
		switch role {
		case "leafA":
			if rng.Intn(2) == 0 {
				return []expr.Expr{expr.Var("x")}
			}
			return []expr.Expr{expr.MustParse("x * 2 + 1")}
		case "leafC":
			return []expr.Expr{expr.Var("x")}
		default: // leafB: arity 0
			return nil
		}
	}
	roles := []string{"leafA", "leafB", "leafC"}
	for i := 0; i < m; i++ {
		st, err := flow.AddState(names[i], model.AND, model.NoSharing)
		if err != nil {
			return nil, err
		}
		if i == trap {
			continue // the trap absorbs without doing work
		}
		nReq := 1 + rng.Intn(2)
		if rng.Intn(4) == 0 {
			nReq = 0
		}
		if nReq > 1 && rng.Intn(3) == 0 {
			// Sharing restricts a state to one role; KOfN needs 1<=K<=n.
			st.Dependency = model.Sharing
			role := roles[rng.Intn(len(roles))]
			for r := 0; r < nReq; r++ {
				st.AddRequest(model.Request{Role: role, Params: paramFor(role)})
			}
		} else {
			if nReq > 0 && rng.Intn(3) == 0 {
				st.Completion = model.KOfN
				st.K = 1 + rng.Intn(nReq)
			} else if rng.Intn(2) == 0 {
				st.Completion = model.OR
			}
			for r := 0; r < nReq; r++ {
				role := roles[rng.Intn(len(roles))]
				req := model.Request{Role: role, Params: paramFor(role)}
				if rng.Intn(3) == 0 {
					req.Internal = expr.Num(0.001 * rng.Float64())
				}
				st.AddRequest(req)
			}
		}
	}
	// Route one leaf role through an imperfect connector sometimes.
	if rng.Intn(2) == 0 {
		asm.AddBinding("root", "leafA", "leafA", "conn")
	}

	if err := flow.AddTransitionP(model.StartState, names[0], 1); err != nil {
		return nil, err
	}
	for i := 0; i < m; i++ {
		if i == trap {
			if err := flow.AddTransitionP(names[i], names[i], 1); err != nil {
				return nil, err
			}
			continue
		}
		// Integer weights keep the normalized row sum at one within ulps.
		type edge struct {
			to string
			w  int
		}
		edges := []edge{{model.EndState, 1 + rng.Intn(8)}}
		seen := map[string]bool{model.EndState: true}
		add := func(to string, w int) {
			if !seen[to] {
				seen[to] = true
				edges = append(edges, edge{to, w})
			}
		}
		for _, j := range rng.Perm(m)[:rng.Intn(m)] {
			if j == i {
				continue
			}
			add(names[j], 1+rng.Intn(8)) // forward or back edge
		}
		if rng.Intn(3) == 0 {
			add(names[i], 1+rng.Intn(4)) // partial self-loop
		}
		if trap >= 0 && rng.Intn(2) == 0 {
			add(names[trap], 1)
		}
		total := 0
		for _, e := range edges {
			total += e.w
		}
		for _, e := range edges {
			if err := flow.AddTransitionP(names[i], e.to, float64(e.w)/float64(total)); err != nil {
				return nil, err
			}
		}
		// A zero-probability edge must be inert on every path.
		for _, j := range rng.Perm(m) {
			if !seen[names[j]] {
				if err := flow.AddTransitionP(names[i], names[j], 0); err != nil {
					return nil, err
				}
				break
			}
		}
	}
	if err := asm.AddService(root); err != nil {
		return nil, err
	}
	if err := asm.Validate(); err != nil {
		return nil, err
	}
	return asm, nil
}

// TestRandomFlowParity is the cross-engine property test: on 60 random
// assemblies and a non-uniform batch grid, compiled Pfail must match the
// interpreted engine within 1e-12 at every point, the reused interpreted
// oracle must match a one-shot interpreter bitwise, and PfailBatch (on a
// non-uniform and a uniform grid) must match single-point Pfail bitwise.
func TestRandomFlowParity(t *testing.T) {
	const tol = 1e-12
	var sawCyclic, sawSelf, sawDAG int
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		asm, err := randomFlowAssembly(rng)
		if err != nil {
			t.Fatalf("seed %d: build: %v", seed, err)
		}
		ca, err := Compile(asm, Options{}, "root")
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		// The test being in-package, audit the compiled structure so a
		// generator regression cannot silently stop covering the solver's
		// branches.
		for i := range ca.services {
			comp := ca.services[i].comp
			if comp == nil || ca.services[i].name != "root" {
				continue
			}
			if comp.structure.maxSCC > 1 {
				sawCyclic++
			} else {
				sawDAG++
			}
			for _, tr := range comp.transitions {
				if tr.to == tr.from && !(tr.isConst && tr.constVal == 0) {
					sawSelf++
					break
				}
			}
		}
		interp := New(asm, Options{})

		xs := make([]float64, 11) // not a multiple of the batch chunk
		sets := make([][]float64, len(xs))
		single := make([]float64, len(xs))
		for j := range xs {
			xs[j] = 1 + 37*float64(j) + rng.Float64()
			sets[j] = []float64{xs[j]}
			// Single points first; the batch below recomputes every
			// point, since no result outlives its evaluation.
			if single[j], err = ca.Pfail("root", xs[j]); err != nil {
				t.Fatalf("seed %d: compiled x=%g: %v", seed, xs[j], err)
			}
		}
		batch, err := ca.PfailBatch("root", sets)
		if err != nil {
			t.Fatalf("seed %d: batch: %v", seed, err)
		}
		for j, x := range xs {
			if batch[j] != single[j] {
				t.Errorf("seed %d x=%g: batch %v != Pfail %v (want bitwise equality)", seed, x, batch[j], single[j])
			}
			iv, err := interp.Pfail("root", x)
			if err != nil {
				t.Fatalf("seed %d: interpreted x=%g: %v", seed, x, err)
			}
			// The oracle must be the interpreter at every point: a reused
			// evaluator answers bit for bit what a one-shot one does, so
			// no call history can swap in another engine.
			fresh, err := New(asm, Options{}).Pfail("root", x)
			if err != nil {
				t.Fatalf("seed %d: one-shot interpreted x=%g: %v", seed, x, err)
			}
			if iv != fresh {
				t.Errorf("seed %d x=%g: reused oracle %v != one-shot interpreter %v (want bitwise equality)", seed, x, iv, fresh)
			}
			if math.Abs(single[j]-iv) > tol {
				t.Errorf("seed %d x=%g: compiled %v vs interpreted %v, |diff| = %g", seed, x, single[j], iv, math.Abs(single[j]-iv))
			}
			if p := batch[j]; p < 0 || p > 1 || math.IsNaN(p) {
				t.Errorf("seed %d x=%g: Pfail %v escapes [0,1]", seed, x, p)
			}
		}

		// A uniform batch (all points identical) must match the
		// single-point value exactly too.
		uni := make([][]float64, 8)
		for j := range uni {
			uni[j] = []float64{xs[0]}
		}
		ub, err := ca.PfailBatch("root", uni)
		if err != nil {
			t.Fatalf("seed %d: uniform batch: %v", seed, err)
		}
		for j, p := range ub {
			if p != single[0] {
				t.Errorf("seed %d: uniform batch point %d: %v != %v", seed, j, p, single[0])
			}
		}
	}
	if sawCyclic < 5 || sawSelf < 5 || sawDAG < 5 {
		t.Errorf("generator coverage too thin: %d cyclic, %d self-loop, %d DAG flows (want >= 5 each)",
			sawCyclic, sawSelf, sawDAG)
	}
}
