package sensitivity

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"socrel/internal/core"
)

// Dist is a one-dimensional input distribution for uncertainty analysis.
type Dist struct {
	// Kind selects the distribution family.
	Kind DistKind
	// A, B parameterize it: Uniform on [A, B]; LogUniform on [A, B]
	// (A > 0); Normal with mean A and standard deviation B; Point at A.
	A, B float64
}

// DistKind enumerates distribution families.
type DistKind int

// Distribution families.
const (
	// DistPoint is a degenerate distribution at A.
	DistPoint DistKind = iota + 1
	// DistUniform is uniform on [A, B].
	DistUniform
	// DistLogUniform is log-uniform on [A, B] (both positive) — the
	// natural prior for failure rates known only to an order of magnitude.
	DistLogUniform
	// DistNormal has mean A and standard deviation B.
	DistNormal
)

func (d Dist) validate(name string) error {
	switch d.Kind {
	case DistPoint:
		return nil
	case DistUniform:
		if d.B < d.A {
			return fmt.Errorf("%w: %s uniform [%g, %g]", ErrBadRange, name, d.A, d.B)
		}
	case DistLogUniform:
		if d.A <= 0 || d.B < d.A {
			return fmt.Errorf("%w: %s log-uniform [%g, %g]", ErrBadRange, name, d.A, d.B)
		}
	case DistNormal:
		if d.B < 0 {
			return fmt.Errorf("%w: %s normal sigma %g", ErrBadRange, name, d.B)
		}
	default:
		return fmt.Errorf("%w: %s has unknown distribution kind %d", ErrBadRange, name, int(d.Kind))
	}
	return nil
}

func (d Dist) sample(rng *rand.Rand) float64 {
	switch d.Kind {
	case DistUniform:
		return d.A + rng.Float64()*(d.B-d.A)
	case DistLogUniform:
		return d.A * math.Exp(rng.Float64()*math.Log(d.B/d.A))
	case DistNormal:
		return d.A + rng.NormFloat64()*d.B
	default:
		return d.A
	}
}

// UncertaintyResult summarizes the output distribution of a study target
// under input uncertainty.
type UncertaintyResult struct {
	// Samples is the number of Monte Carlo draws.
	Samples int
	// Mean and StdDev of the output.
	Mean, StdDev float64
	// Q05, Median, Q95 are output quantiles.
	Q05, Median, Q95 float64
	// Min and Max observed outputs.
	Min, Max float64
}

// BatchParamFunc evaluates many sampled parameter environments in one
// call, returning ys[i] for envs[i]. It is the Monte Carlo counterpart of
// BatchFunc: the study draws every sample up front and hands the whole
// batch to the implementation, so a compiled study target (see
// CompiledParamBatch) evaluates all draws in one core.PfailBatchCtx call
// instead of one evaluation call per draw.
type BatchParamFunc func(ctx context.Context, envs []map[string]float64) ([]float64, error)

// CompiledParamBatch adapts a compiled service to a BatchParamFunc: frame
// maps one sampled environment to the service's actual-parameter list. Use
// it when the uncertain inputs are formal parameters of the study service;
// uncertain *attributes* (baked into the compiled programs as constants)
// still need a generic ParamFunc that rebuilds the assembly per draw.
func CompiledParamBatch(ca *core.CompiledAssembly, service string, frame func(params map[string]float64) []float64) BatchParamFunc {
	return func(ctx context.Context, envs []map[string]float64) ([]float64, error) {
		sets := make([][]float64, len(envs))
		for i, env := range envs {
			if err := frameCtxErr(ctx, i); err != nil {
				return nil, err
			}
			sets[i] = frame(env)
		}
		return ca.PfailBatchCtx(ctx, service, sets)
	}
}

// PerSample adapts a scalar ParamFunc to a BatchParamFunc: samples are
// evaluated in order with a cancellation check at every sample boundary.
func PerSample(f ParamFunc) BatchParamFunc {
	return func(ctx context.Context, envs []map[string]float64) ([]float64, error) {
		ys := make([]float64, len(envs))
		for i, env := range envs {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("%w: canceled at sample %d: %w", core.ErrCanceled, i, err)
			}
			y, err := f(env)
			if err != nil {
				return nil, fmt.Errorf("sample %d: %w", i, err)
			}
			ys[i] = y
		}
		return ys, nil
	}
}

// Uncertainty propagates input-parameter uncertainty through f by Monte
// Carlo sampling: each named parameter is drawn from its distribution,
// f is evaluated, and the output distribution is summarized. Use it to put
// bands around reliability predictions whose failure rates are only known
// approximately.
func Uncertainty(f ParamFunc, dists map[string]Dist, samples int, seed int64) (UncertaintyResult, error) {
	return UncertaintyBatch(context.Background(), PerSample(f), dists, samples, seed)
}

// UncertaintyBatch is the batch-kernel form of Uncertainty: all samples
// are drawn first (the draw sequence for a given seed is identical to
// Uncertainty's, so the two forms see the same inputs) and evaluated in
// one BatchParamFunc call, honoring cancellation. With CompiledParamBatch
// the whole Monte Carlo study becomes a single core.PfailBatchCtx batch.
func UncertaintyBatch(ctx context.Context, f BatchParamFunc, dists map[string]Dist, samples int, seed int64) (UncertaintyResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if samples < 2 {
		return UncertaintyResult{}, fmt.Errorf("%w: %d samples", ErrBadRange, samples)
	}
	names := make([]string, 0, len(dists))
	for name, d := range dists {
		if err := d.validate(name); err != nil {
			return UncertaintyResult{}, err
		}
		names = append(names, name)
	}
	sort.Strings(names)

	rng := rand.New(rand.NewSource(seed))
	envs := make([]map[string]float64, samples)
	for i := range envs {
		if err := frameCtxErr(ctx, i); err != nil {
			return UncertaintyResult{}, fmt.Errorf("sensitivity: uncertainty %w", err)
		}
		env := make(map[string]float64, len(names))
		for _, name := range names {
			env[name] = dists[name].sample(rng)
		}
		envs[i] = env
	}
	outs, err := f(ctx, envs)
	if err != nil {
		return UncertaintyResult{}, fmt.Errorf("sensitivity: uncertainty %w", err)
	}
	if len(outs) != samples {
		return UncertaintyResult{}, fmt.Errorf("sensitivity: uncertainty: batch returned %d values for %d samples", len(outs), samples)
	}
	var sum, sumSq float64
	for _, y := range outs {
		sum += y
		sumSq += y * y
	}
	sort.Float64s(outs)
	n := float64(samples)
	mean := sum / n
	variance := math.Max(0, sumSq/n-mean*mean)
	return UncertaintyResult{
		Samples: samples,
		Mean:    mean,
		StdDev:  math.Sqrt(variance),
		Q05:     quantile(outs, 0.05),
		Median:  quantile(outs, 0.5),
		Q95:     quantile(outs, 0.95),
		Min:     outs[0],
		Max:     outs[len(outs)-1],
	}, nil
}

// quantile returns the linearly interpolated q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
