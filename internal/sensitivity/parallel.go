package sensitivity

import (
	"context"
	"fmt"
	"runtime/debug"

	"socrel/internal/core"
)

// BatchFunc evaluates a whole grid of study points in one call, returning
// ys[i] for xs[i]. It is the batch-kernel counterpart of Func: instead of
// the sweep fanning single-point closures out over goroutines, the
// implementation receives every point at once and brings its own
// evaluation strategy — CompiledBatch routes the grid through
// core.PfailBatchCtx, whose worker pool is where sweep parallelism now
// lives.
type BatchFunc func(ctx context.Context, xs []float64) ([]float64, error)

// CompiledBatch adapts a compiled service to a BatchFunc sweeping Pfail:
// frame maps the swept scalar to the service's full actual-parameter list
// (e.g. the list size into (user, list, q)). The returned BatchFunc hands
// the whole grid to core.PfailBatchCtx in one call, so the sweep gets the
// batch kernel, its memo, and its worker pool.
func CompiledBatch(ca *core.CompiledAssembly, service string, frame func(x float64) []float64) BatchFunc {
	return func(ctx context.Context, xs []float64) ([]float64, error) {
		sets := make([][]float64, len(xs))
		for i, x := range xs {
			if err := frameCtxErr(ctx, i); err != nil {
				return nil, err
			}
			sets[i] = frame(x)
		}
		return ca.PfailBatchCtx(ctx, service, sets)
	}
}

// CompiledReliabilityBatch is CompiledBatch sweeping reliability (1 - Pfail)
// instead of failure probability.
func CompiledReliabilityBatch(ca *core.CompiledAssembly, service string, frame func(x float64) []float64) BatchFunc {
	return func(ctx context.Context, xs []float64) ([]float64, error) {
		sets := make([][]float64, len(xs))
		for i, x := range xs {
			if err := frameCtxErr(ctx, i); err != nil {
				return nil, err
			}
			sets[i] = frame(x)
		}
		return ca.ReliabilityBatchCtx(ctx, service, sets)
	}
}

// PerPoint adapts a scalar Func to a BatchFunc for study targets that have
// no batch entry point. Points are evaluated in order with a cancellation
// check at every point boundary and panic isolation per point (a panicking
// point surfaces core.ErrPanic; an expired context surfaces
// core.ErrCanceled). There is no hidden concurrency: a bare closure gets
// point-at-a-time evaluation, and parallel throughput is the batch
// implementation's job (see CompiledBatch).
func PerPoint(f Func) BatchFunc {
	return func(ctx context.Context, xs []float64) ([]float64, error) {
		ys := make([]float64, len(xs))
		for i, x := range xs {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("%w: canceled at point %d: %w", core.ErrCanceled, i, err)
			}
			y, err := guardFunc(f, x)
			if err != nil {
				return nil, fmt.Errorf("at %g: %w", x, err)
			}
			ys[i] = y
		}
		return ys, nil
	}
}

// SweepBatch evaluates bf over xs and returns the same series Sweep would:
// points in xs order.
func SweepBatch(name string, xs []float64, bf BatchFunc) (Series, error) {
	return SweepBatchCtx(context.Background(), name, xs, bf)
}

// SweepBatchCtx evaluates the whole grid through one BatchFunc call,
// honoring cancellation. It is the single sweep core: the scalar sweeps
// delegate here via PerPoint, and compiled sweeps via CompiledBatch, so
// every caller shares one error and ordering contract — points in xs
// order, and on failure the error of the lowest-indexed failing point
// (core.PfailBatchCtx reports exactly that; PerPoint stops at the first).
func SweepBatchCtx(ctx context.Context, name string, xs []float64, bf BatchFunc) (Series, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ys, err := bf(ctx, xs)
	if err != nil {
		return Series{}, fmt.Errorf("sensitivity: sweep %s: %w", name, err)
	}
	if len(ys) != len(xs) {
		return Series{}, fmt.Errorf("sensitivity: sweep %s: batch returned %d values for %d points", name, len(ys), len(xs))
	}
	s := Series{Name: name, Points: make([]Point, len(xs))}
	for i, x := range xs {
		s.Points[i] = Point{X: x, Y: ys[i]}
	}
	return s, nil
}

// frameCtxErr is the cancellation check for frame/draw loops that only
// build inputs (no evaluation): the per-iteration work is tiny, so the
// check is strided — a canceled study still stops within 256 iterations
// of the cancel instead of framing an arbitrarily large grid first.
func frameCtxErr(ctx context.Context, i int) error {
	if i&255 != 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: canceled while framing point %d: %w", core.ErrCanceled, i, err)
	}
	return nil
}

// guardFunc evaluates one sweep point with panic isolation, so a defective
// model function cannot crash the sweep (or the process) and instead fails
// just its own point.
func guardFunc(f Func, x float64) (y float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			y, err = 0, &core.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return f(x)
}
