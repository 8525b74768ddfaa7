package core

import (
	"sync"
	"testing"
)

// TestCompiledConcurrentBitIdentical hammers one CompiledAssembly from
// many goroutines (run with -race to check the immutability contract) and
// requires every concurrent result to be bit-identical to the serial
// compiled path.
func TestCompiledConcurrentBitIdentical(t *testing.T) {
	const goroutines = 16
	for name, asm := range paperAssemblies(t, 5e-6, 5e-2) {
		ca, err := Compile(asm, Options{}, "search")
		if err != nil {
			t.Fatalf("Compile(%s): %v", name, err)
		}
		lists := paperLists()

		// Serial reference, computed first.
		want := make([]float64, len(lists))
		for i, list := range lists {
			want[i], err = ca.Pfail("search", 1, list, 1)
			if err != nil {
				t.Fatalf("%s serial list=%g: %v", name, list, err)
			}
		}

		var wg sync.WaitGroup
		errs := make([]error, goroutines)
		diffs := make([]int, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for rep := 0; rep < 50; rep++ {
					for i, list := range lists {
						got, err := ca.Pfail("search", 1, list, 1)
						if err != nil {
							errs[g] = err
							return
						}
						if got != want[i] {
							diffs[g]++
						}
					}
				}
			}(g)
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Errorf("%s goroutine %d: %v", name, g, err)
			}
		}
		for g, d := range diffs {
			if d != 0 {
				t.Errorf("%s goroutine %d: %d results differ from serial path", name, g, d)
			}
		}
	}
}

// TestCompiledBatchConcurrent runs PfailBatch (itself parallel) from
// several goroutines at once and checks agreement with serial Pfail, on
// a numeric and a closed-form compile. The grid is large enough to clear
// both fan-out floors, so with GOMAXPROCS >= 2 every batch runs on
// several workers.
func TestCompiledBatchConcurrent(t *testing.T) {
	const goroutines = 8
	asm := paperAssemblies(t, 1e-6, 1e-1)["remote"]
	numeric, err := Compile(asm, Options{}, "search")
	if err != nil {
		t.Fatal(err)
	}
	closed, err := CompileParametric(asm, Options{}, ParametricOptions{}, "search")
	if err != nil {
		t.Fatal(err)
	}
	lists := paperLists()
	sets := make([][]float64, 2*minWorkerPointsClosedForm+3)
	for i := range sets {
		sets[i] = []float64{1, lists[i%len(lists)] + float64(i), 1}
	}
	for name, ca := range map[string]*CompiledAssembly{"numeric": numeric, "closed-form": closed} {
		want := make([]float64, len(sets))
		for i, ps := range sets {
			if want[i], err = ca.Pfail("search", ps...); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := ca.PfailBatch("search", sets)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s batch point %d: %.17g != %.17g", name, i, got[i], want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestEvaluatorSweepStaysDeterministic pins the seed-compat contract: one
// Evaluator reused across a sweep is the interpreter at every point, so
// each value is bit for bit what a one-shot evaluator returns.
func TestEvaluatorSweepStaysDeterministic(t *testing.T) {
	asm := paperAssemblies(t, 5e-6, 2.5e-2)["local"]
	ev := New(asm, Options{})
	for _, list := range paperLists() {
		got, err := ev.Pfail("search", 1, list, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(asm, Options{}).Pfail("search", 1, list, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("list=%g: reused evaluator %.17g vs one-shot %.17g (want bitwise equality)", list, got, want)
		}
	}
}
