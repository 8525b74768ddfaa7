package sensitivity

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"socrel/internal/assembly"
	"socrel/internal/core"
)

// TestSweepParallelMatchesSerial checks that a per-point batch sweep
// matches Sweep in order and values.
func TestSweepParallelMatchesSerial(t *testing.T) {
	xs, err := PowersOfTwo(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x float64) (float64, error) { return 1 / (1 + x), nil }
	serial, err := Sweep("s", xs, f)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SweepBatchCtx(context.Background(), "s", xs, PerPoint(f))
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Points) != len(serial.Points) {
		t.Fatalf("len = %d, want %d", len(par.Points), len(serial.Points))
	}
	for i := range par.Points {
		if par.Points[i] != serial.Points[i] {
			t.Errorf("point %d: %+v != %+v", i, par.Points[i], serial.Points[i])
		}
	}
}

// TestSweepParallelFirstError: with several failing points, the error of
// the lowest-indexed one is reported, like the serial sweep.
func TestSweepParallelFirstError(t *testing.T) {
	boom := errors.New("boom")
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	f := func(x float64) (float64, error) {
		if x >= 3 {
			return 0, fmt.Errorf("%w at %g", boom, x)
		}
		return x, nil
	}
	_, err := SweepBatchCtx(context.Background(), "s", xs, PerPoint(f))
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want boom", err)
	}
	if got := err.Error(); !contains(got, "at 3") {
		t.Errorf("error %q should report the first failing point (x=3)", got)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestSweepParallelPaperAssemblies sweeps Pfail("search") over list sizes
// through a shared CompiledAssembly for both paper assemblies, with eight
// concurrent sweep callers sharing the compiled assembly, and
// requires bit-identical agreement with the serial sweep.
func TestSweepParallelPaperAssemblies(t *testing.T) {
	p := assembly.DefaultPaperParams()
	builds := map[string]func(assembly.PaperParams) (*assembly.Assembly, error){
		"local":  assembly.LocalAssembly,
		"remote": assembly.RemoteAssembly,
	}
	xs, err := PowersOfTwo(4, 20)
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range builds {
		asm, err := build(p)
		if err != nil {
			t.Fatal(err)
		}
		ca, err := core.Compile(asm, core.Options{}, "search")
		if err != nil {
			t.Fatal(err)
		}
		f := func(list float64) (float64, error) { return ca.Pfail("search", 1, list, 1) }
		serial, err := Sweep(name, xs, f)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				par, err := SweepBatchCtx(context.Background(), name, xs, PerPoint(f))
				if err != nil {
					t.Error(err)
					return
				}
				for i := range par.Points {
					if par.Points[i] != serial.Points[i] {
						t.Errorf("%s point %d: parallel %+v != serial %+v", name, i, par.Points[i], serial.Points[i])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestSweepParallelConcurrentCallers runs several per-point batch sweeps
// at once
// (exercised under -race in CI).
func TestSweepParallelConcurrentCallers(t *testing.T) {
	xs, err := LinSpace(0, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x float64) (float64, error) { return x * x, nil }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := SweepBatchCtx(context.Background(), "s", xs, PerPoint(f))
			if err != nil {
				t.Error(err)
				return
			}
			for i, pt := range s.Points {
				if pt.X != xs[i] || pt.Y != xs[i]*xs[i] {
					t.Errorf("point %d mismatch: %+v", i, pt)
					return
				}
			}
		}()
	}
	wg.Wait()
}
