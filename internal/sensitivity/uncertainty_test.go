package sensitivity

import (
	"context"
	"errors"
	"math"
	"testing"

	"socrel/internal/assembly"
	"socrel/internal/core"
)

func TestUncertaintyPointDistribution(t *testing.T) {
	// All-point inputs: zero output spread.
	f := func(p map[string]float64) (float64, error) { return p["a"] + p["b"], nil }
	res, err := Uncertainty(f, map[string]Dist{
		"a": {Kind: DistPoint, A: 2},
		"b": {Kind: DistPoint, A: 3},
	}, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean != 5 || res.StdDev != 0 || res.Min != 5 || res.Max != 5 {
		t.Errorf("result = %+v", res)
	}
}

func TestUncertaintyUniformMoments(t *testing.T) {
	// Uniform [0, 1]: mean 0.5, sd 1/sqrt(12) ≈ 0.2887.
	f := func(p map[string]float64) (float64, error) { return p["u"], nil }
	res, err := Uncertainty(f, map[string]Dist{"u": {Kind: DistUniform, A: 0, B: 1}}, 50000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Mean-0.5) > 0.01 {
		t.Errorf("mean = %g", res.Mean)
	}
	if math.Abs(res.StdDev-1/math.Sqrt(12)) > 0.01 {
		t.Errorf("sd = %g", res.StdDev)
	}
	if math.Abs(res.Median-0.5) > 0.02 || math.Abs(res.Q05-0.05) > 0.02 || math.Abs(res.Q95-0.95) > 0.02 {
		t.Errorf("quantiles = %+v", res)
	}
}

func TestUncertaintyNormal(t *testing.T) {
	f := func(p map[string]float64) (float64, error) { return p["x"], nil }
	res, err := Uncertainty(f, map[string]Dist{"x": {Kind: DistNormal, A: 10, B: 2}}, 50000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Mean-10) > 0.05 || math.Abs(res.StdDev-2) > 0.05 {
		t.Errorf("result = %+v", res)
	}
}

func TestUncertaintyLogUniform(t *testing.T) {
	// Log-uniform [1e-3, 1e-1]: median is the geometric mean 1e-2.
	f := func(p map[string]float64) (float64, error) { return p["r"], nil }
	res, err := Uncertainty(f, map[string]Dist{"r": {Kind: DistLogUniform, A: 1e-3, B: 1e-1}}, 50000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(math.Log10(res.Median)-(-2)) > 0.05 {
		t.Errorf("median = %g, want ~1e-2", res.Median)
	}
	if res.Min < 1e-3 || res.Max > 1e-1 {
		t.Errorf("support violated: [%g, %g]", res.Min, res.Max)
	}
}

func TestUncertaintyErrors(t *testing.T) {
	f := func(p map[string]float64) (float64, error) { return 0, nil }
	if _, err := Uncertainty(f, nil, 1, 1); !errors.Is(err, ErrBadRange) {
		t.Errorf("error = %v", err)
	}
	bad := map[string]Dist{"x": {Kind: DistUniform, A: 2, B: 1}}
	if _, err := Uncertainty(f, bad, 10, 1); !errors.Is(err, ErrBadRange) {
		t.Errorf("error = %v", err)
	}
	bad2 := map[string]Dist{"x": {Kind: DistLogUniform, A: -1, B: 1}}
	if _, err := Uncertainty(f, bad2, 10, 1); !errors.Is(err, ErrBadRange) {
		t.Errorf("error = %v", err)
	}
	bad3 := map[string]Dist{"x": {Kind: DistNormal, A: 0, B: -1}}
	if _, err := Uncertainty(f, bad3, 10, 1); !errors.Is(err, ErrBadRange) {
		t.Errorf("error = %v", err)
	}
	bad4 := map[string]Dist{"x": {Kind: DistKind(99)}}
	if _, err := Uncertainty(f, bad4, 10, 1); !errors.Is(err, ErrBadRange) {
		t.Errorf("error = %v", err)
	}
	boom := func(p map[string]float64) (float64, error) { return 0, errors.New("boom") }
	if _, err := Uncertainty(boom, map[string]Dist{"x": {Kind: DistPoint, A: 1}}, 10, 1); err == nil {
		t.Error("expected propagated error")
	}
}

func TestUncertaintyDeterministicSeed(t *testing.T) {
	f := func(p map[string]float64) (float64, error) { return p["u"], nil }
	d := map[string]Dist{"u": {Kind: DistUniform, A: 0, B: 1}}
	a, err := Uncertainty(f, d, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Uncertainty(f, d, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean != b.Mean || a.Q95 != b.Q95 {
		t.Error("same seed produced different results")
	}
}

// TestUncertaintyBatchCompiled routes a Monte Carlo study whose uncertain
// input is a formal parameter (the list-size workload) through the
// compiled batch kernel and requires bitwise agreement with the generic
// per-sample path: same seed, same draws, and each batch point is
// bit-identical to a single-point evaluation.
func TestUncertaintyBatchCompiled(t *testing.T) {
	asm, err := assembly.RemoteAssembly(assembly.DefaultPaperParams())
	if err != nil {
		t.Fatal(err)
	}
	ca, err := core.Compile(asm, core.Options{}, "search")
	if err != nil {
		t.Fatal(err)
	}
	dists := map[string]Dist{"list": {Kind: DistLogUniform, A: 16, B: 1 << 20}}
	frame := func(env map[string]float64) []float64 { return []float64{1, env["list"], 1} }
	batch, err := UncertaintyBatch(context.Background(),
		CompiledParamBatch(ca, "search", frame), dists, 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	generic, err := Uncertainty(func(env map[string]float64) (float64, error) {
		return ca.Pfail("search", 1, env["list"], 1)
	}, dists, 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if batch != generic {
		t.Errorf("batch study %+v != generic study %+v", batch, generic)
	}
	if !(batch.Q05 < batch.Median && batch.Median < batch.Q95) {
		t.Errorf("quantiles not ordered: %+v", batch)
	}
}

// TestUncertaintyOnPaperModel puts a band around the remote assembly's
// reliability when gamma is only known to an order of magnitude — the
// realistic SOC setting where a provider's failure rate is a rough
// estimate.
func TestUncertaintyOnPaperModel(t *testing.T) {
	f := func(params map[string]float64) (float64, error) {
		p := assembly.DefaultPaperParams()
		p.Gamma = params["gamma"]
		return assembly.ClosedFormSearch(p, true, 1, 4096, 1), nil
	}
	res, err := Uncertainty(f, map[string]Dist{
		"gamma": {Kind: DistLogUniform, A: 5e-3, B: 5e-2},
	}, 5000, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The unreliability band must be wide (gamma dominates) and ordered.
	if !(res.Q05 < res.Median && res.Median < res.Q95) {
		t.Errorf("quantiles not ordered: %+v", res)
	}
	if res.Q95-res.Q05 < 0.1 {
		t.Errorf("band too narrow for an order-of-magnitude gamma: %+v", res)
	}
	if res.Min < 0 || res.Max > 1 {
		t.Errorf("outputs escape [0,1]: %+v", res)
	}
}
