package core_test

import (
	"math"
	"testing"

	"socrel/internal/core"
	"socrel/internal/experiments"
)

// TestCompiledSharesWithinEvaluation: in the layered synthetic assembly
// every state of L<k> calls L<k-1> twice with the same parameter, so one
// evaluation of L<depth> invokes each lower level 40 times. The paper's
// Pfail_Alg solves each (service, params) once per evaluation; so must
// the compiled engine: each composite L1..L<depth> is solved exactly once
// (a miss) and every other invocation of it is a hit, 39 per level below
// the root. Without sharing the work grows as 40^depth, so the depths run
// in ascending order and the first wrong count stops the test before a
// deeper level would take hours. A second evaluation at the same point,
// and each point of a batch, starts from an empty table: nothing carries
// over between evaluations.
func TestCompiledSharesWithinEvaluation(t *testing.T) {
	const n = 1e6
	for depth := 1; depth <= 8; depth++ {
		asm, root, err := experiments.SyntheticAssembly(depth, 2, 20)
		if err != nil {
			t.Fatal(err)
		}
		ca, err := core.Compile(asm, core.Options{}, root)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.New(asm, core.Options{}).Pfail(root, n)
		if err != nil {
			t.Fatal(err)
		}
		wantHits, wantMisses := uint64(39*(depth-1)), uint64(depth)
		check := func(what string, evals uint64, before core.MemoStats) {
			t.Helper()
			after := ca.MemoStats()
			hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
			if hits != evals*wantHits || misses != evals*wantMisses {
				t.Fatalf("depth %d %s: hits %d, misses %d; want %d and %d (each composite solved once per evaluation)",
					depth, what, hits, misses, evals*wantHits, evals*wantMisses)
			}
		}
		for _, what := range []string{"first Pfail", "repeat Pfail"} {
			before := ca.MemoStats()
			got, err := ca.Pfail(root, n)
			if err != nil {
				t.Fatal(err)
			}
			check(what, 1, before)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("depth %d %s: compiled %v vs interpreted %v", depth, what, got, want)
			}
		}
		before := ca.MemoStats()
		batch, err := ca.PfailBatch(root, [][]float64{{n}, {n}, {2 * n}})
		if err != nil {
			t.Fatal(err)
		}
		check("batch of 3", 3, before)
		if math.Abs(batch[0]-want) > 1e-12 || batch[1] != batch[0] {
			t.Fatalf("depth %d batch: %v, want %v twice", depth, batch[:2], want)
		}
	}
}
