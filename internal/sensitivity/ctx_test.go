package sensitivity

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"socrel/internal/assembly"
	"socrel/internal/core"
)

// TestSweepParallelCtxCanceled cancels the sweep from inside the first
// evaluated point and checks that the workers stop at the next point
// boundary instead of evaluating all 128 points.
func TestSweepParallelCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	f := func(x float64) (float64, error) {
		if calls.Add(1) == 1 {
			cancel()
		}
		return x, nil
	}
	xs := make([]float64, 128)
	for i := range xs {
		xs[i] = float64(i)
	}
	_, err := SweepBatchCtx(ctx, "s", xs, PerPoint(f))
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want core.ErrCanceled", err)
	}
	if n, limit := calls.Load(), int64(2*runtime.GOMAXPROCS(0)+2); n > limit {
		t.Errorf("%d points evaluated after the cancel, want <= %d", n, limit)
	}
}

// TestSweepParallelPanicIsolated: a panicking point fails the sweep with
// core.ErrPanic instead of crashing the worker (and the process).
func TestSweepParallelPanicIsolated(t *testing.T) {
	_, err := SweepBatchCtx(context.Background(), "s", []float64{1, 2, 3, 4}, PerPoint(func(x float64) (float64, error) {
		if x == 3 {
			panic("boom")
		}
		return x, nil
	}))
	if !errors.Is(err, core.ErrPanic) {
		t.Fatalf("err = %v, want core.ErrPanic", err)
	}
	var pe *core.PanicError
	if !errors.As(err, &pe) || pe.Value != any("boom") || len(pe.Stack) == 0 {
		t.Errorf("err = %v, want a *core.PanicError carrying the panic value and stack", err)
	}
}

// TestUncertaintyBatchCancelMidFlight cancels the study from inside the
// third sample's evaluation; PerSample must stop at the next sample
// boundary instead of evaluating all 512 draws.
func TestUncertaintyBatchCancelMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	f := func(params map[string]float64) (float64, error) {
		if calls.Add(1) == 3 {
			cancel()
		}
		return params["x"], nil
	}
	_, err := UncertaintyBatch(ctx, PerSample(f), map[string]Dist{
		"x": {Kind: DistUniform, A: 0, B: 1},
	}, 512, 7)
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want core.ErrCanceled", err)
	}
	if n := calls.Load(); n > 4 {
		t.Errorf("%d samples evaluated after the cancel, want <= 4", n)
	}
}

// TestUncertaintyBatchPreCanceled: an already-expired context stops the
// study in the draw loop, before the target is ever called.
func TestUncertaintyBatchPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	f := func(ctx context.Context, envs []map[string]float64) ([]float64, error) {
		calls.Add(1)
		ys := make([]float64, len(envs))
		return ys, nil
	}
	_, err := UncertaintyBatch(ctx, f, map[string]Dist{
		"x": {Kind: DistUniform, A: 0, B: 1},
	}, 4096, 7)
	if !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want core.ErrCanceled", err)
	}
	if calls.Load() != 0 {
		t.Error("batch target was called despite a pre-canceled context")
	}
}

// TestCompiledBatchFramePreCanceled: the frame loop notices an expired
// context before framing the grid, so the frame function (which may be
// arbitrarily expensive) runs at most a stride's worth of times.
func TestCompiledBatchFramePreCanceled(t *testing.T) {
	asm, err := assembly.RemoteAssembly(assembly.DefaultPaperParams())
	if err != nil {
		t.Fatal(err)
	}
	ca, err := core.Compile(asm, core.Options{}, "search")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var frames atomic.Int64
	bf := CompiledBatch(ca, "search", func(x float64) []float64 {
		frames.Add(1)
		return []float64{1, x, 1}
	})
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := SweepBatchCtx(ctx, "list", xs, bf); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want core.ErrCanceled", err)
	}
	if frames.Load() != 0 {
		t.Errorf("frame ran %d times despite a pre-canceled context", frames.Load())
	}
}
