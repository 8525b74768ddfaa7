package estimate

import (
	"math"
	"math/rand"
	"testing"
)

// fitRateRef is the per-outcome MLE the grouped fitRate replaced: one
// score and information term per windowed failure. It is the reference
// the grouped sums are checked against.
func fitRateRef(failExp []float64, succExp float64, confidence float64) (rate, lo, hi float64, ok bool) {
	score := func(r float64) float64 {
		u := -succExp
		for _, t := range failExp {
			u += t / math.Expm1(r*t)
		}
		return u
	}
	total := succExp
	for _, t := range failExp {
		total += t
	}
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return 0, 0, 0, false
	}
	d := len(failExp)
	if d == 0 {
		return 0, 0, -math.Log(1-confidence) / succExp, true
	}
	if succExp <= 0 {
		succExp = total / float64(2*d)
	}
	rate = float64(d) / total
	lo0, hi0 := rate, rate
	for score(lo0) < 0 {
		lo0 /= 2
	}
	for score(hi0) > 0 {
		hi0 *= 2
	}
	for i := 0; i < 100 && hi0-lo0 > 1e-14*hi0; i++ {
		mid := (lo0 + hi0) / 2
		if score(mid) > 0 {
			lo0 = mid
		} else {
			hi0 = mid
		}
	}
	rate = (lo0 + hi0) / 2
	info := 0.0
	for _, t := range failExp {
		em := math.Expm1(rate * t)
		info += t * t * (em + 1) / (em * em)
	}
	seLog := 1 / (rate * math.Sqrt(info))
	z := zQuantile(confidence)
	return rate, rate * math.Exp(-z*seLog), rate * math.Exp(z*seLog), true
}

// grouped folds per-outcome failure exposures into fitRate's groups,
// leaving failExp untouched.
func grouped(failExp []float64) []expGroup {
	g := make([]expGroup, len(failExp))
	for i, t := range failExp {
		g[i] = expGroup{t: t, n: 1}
	}
	return groupExposures(g)
}

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// randomWindow draws a window of outcomes whose exposures mix a few
// repeated values (fixed-size requests) with continuous ones.
func randomWindow(rng *rand.Rand) (failExp []float64, succExp float64) {
	levels := []float64{0.25, 1, 1, 2, 3.5}
	n := 1 + rng.Intn(256)
	pFail := rng.Float64()
	for i := 0; i < n; i++ {
		t := levels[rng.Intn(len(levels))]
		if rng.Intn(4) == 0 {
			t = 0.01 + 5*rng.Float64()
		}
		if rng.Float64() < pFail {
			failExp = append(failExp, t)
		} else {
			succExp += t
		}
	}
	return failExp, succExp
}

func TestGroupExposures(t *testing.T) {
	g := grouped([]float64{2, 1, 2, 0.5, 1, 2})
	want := []expGroup{{0.5, 1}, {1, 2}, {2, 3}}
	if len(g) != len(want) {
		t.Fatalf("groups %v, want %v", g, want)
	}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("groups %v, want %v", g, want)
		}
	}
	if g := grouped(nil); len(g) != 0 {
		t.Fatalf("groups of nothing: %v", g)
	}
}

// TestGroupedFitMatchesPerOutcome: on random windows with mixed
// exposures, the grouped MLE equals the per-outcome one to 1e-12
// relative on rate and both bounds.
func TestGroupedFitMatchesPerOutcome(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 2000; trial++ {
		failExp, succExp := randomWindow(rng)
		if trial%10 == 0 {
			succExp = 0 // all failed
		}
		conf := []float64{0.9, 0.95, 0.99}[trial%3]
		r0, lo0, hi0, ok0 := fitRateRef(failExp, succExp, conf)
		r1, lo1, hi1, ok1 := fitRate(grouped(failExp), succExp, conf)
		if ok0 != ok1 || !relClose(r0, r1, 1e-12) || !relClose(lo0, lo1, 1e-12) || !relClose(hi0, hi1, 1e-12) {
			t.Fatalf("trial %d (d=%d, succ=%g): grouped (%v %v %v %v), per-outcome (%v %v %v %v)",
				trial, len(failExp), succExp, r1, lo1, hi1, ok1, r0, lo0, hi0, ok0)
		}
	}
}

// TestGroupedFitConstantExposure: at one exposure t the MLE is the exact
// inversion -log1p(-d/n)/t.
func TestGroupedFitConstantExposure(t *testing.T) {
	for _, tc := range []struct {
		n, d int
		t    float64
	}{{100, 10, 2}, {64, 1, 1}, {64, 63, 1}, {256, 128, 0.5}, {40, 7, 3.25}} {
		failExp := make([]float64, tc.d)
		for i := range failExp {
			failExp[i] = tc.t
		}
		succExp := float64(tc.n-tc.d) * tc.t
		rate, _, _, ok := fitRate(grouped(failExp), succExp, 0.95)
		want := -math.Log1p(-float64(tc.d)/float64(tc.n)) / tc.t
		if !ok || !relClose(rate, want, 1e-12) {
			t.Fatalf("n=%d d=%d t=%g: rate %v (ok %v), want %v", tc.n, tc.d, tc.t, rate, ok, want)
		}
	}
}

// TestGroupedFitEdgeBranches: the censored and all-failed branches
// answer exactly as the per-outcome fit does, and no exposure is no fit.
func TestGroupedFitEdgeBranches(t *testing.T) {
	// Censored: no failures, the one-sided bound -log(1-c)/T.
	conf := 0.95
	rate, lo, hi, ok := fitRate(nil, 50, conf)
	if !ok || rate != 0 || lo != 0 || hi != -math.Log(1-conf)/50 {
		t.Fatalf("censored: %v %v %v %v", rate, lo, hi, ok)
	}
	// All failed, at constant and at mixed exposures.
	for _, failExp := range [][]float64{{1, 1, 1, 1}, {0.5, 2, 2, 1, 0.5}} {
		r0, lo0, hi0, _ := fitRateRef(failExp, 0, 0.95)
		r1, lo1, hi1, ok := fitRate(grouped(failExp), 0, 0.95)
		if !ok || !relClose(r0, r1, 1e-12) || !relClose(lo0, lo1, 1e-12) || !relClose(hi0, hi1, 1e-12) {
			t.Fatalf("all failed %v: grouped (%v %v %v), per-outcome (%v %v %v)", failExp, r1, lo1, hi1, r0, lo0, hi0)
		}
	}
	if _, _, _, ok := fitRate(nil, 0, 0.95); ok {
		t.Fatal("fit with no exposure")
	}
}

// TestEstimateMatchesPerOutcomeFit drives a real estimator with mixed
// exposures and checks every fit against the per-outcome reference over
// the same window, so the reused scratch buffer never carries one fit's
// exposures into the next.
func TestEstimateMatchesPerOutcomeFit(t *testing.T) {
	const window = 32
	e, _ := newTestEstimator(t, Config{Window: window})
	k := Key{Provider: "cpu1", Context: "app"}
	other := Key{Provider: "cpu2", Context: "app"}
	rng := rand.New(rand.NewSource(7))
	type o struct {
		t      float64
		failed bool
	}
	var ring []o
	for i := 0; i < 500; i++ {
		x := o{t: []float64{0.5, 1, 2}[rng.Intn(3)], failed: rng.Intn(5) == 0}
		e.Observe(Outcome{Provider: k.Provider, Context: k.Context, Failed: x.failed, Exposure: x.t})
		e.Observe(Outcome{Provider: other.Provider, Context: other.Context, Failed: rng.Intn(2) == 0, Exposure: 3})
		if ring = append(ring, x); len(ring) > window {
			ring = ring[1:]
		}
		if _, ok := e.Estimate(other); !ok {
			t.Fatal("no estimate for the interleaved bucket")
		}
		got, ok := e.Estimate(k)
		var failExp []float64
		succExp := 0.0
		for _, x := range ring {
			if x.failed {
				failExp = append(failExp, x.t)
			} else {
				succExp += x.t
			}
		}
		rate, lo, hi, okRef := fitRateRef(failExp, succExp, e.Config().Confidence)
		if ok != okRef || got.Failures != len(failExp) || got.Observations != len(ring) ||
			!relClose(got.Rate, rate, 1e-12) || !relClose(got.Lo, lo, 1e-12) || !relClose(got.Hi, hi, 1e-12) {
			t.Fatalf("step %d: estimate %+v (ok %v), per-outcome rate %v [%v, %v] d=%d n=%d", i, got, ok, rate, lo, hi, len(failExp), len(ring))
		}
	}
}

// TestObserveAndFitAllocFree: once a bucket exists, an observation and a
// windowed fit allocate nothing (the fit reuses the estimator's scratch).
func TestObserveAndFitAllocFree(t *testing.T) {
	e, _ := newTestEstimator(t, Config{Window: 64})
	k := Key{Provider: "cpu1", Context: "app"}
	for i := 0; i < 64; i++ {
		e.Observe(Outcome{Provider: k.Provider, Context: k.Context, Failed: i%4 == 0, Exposure: float64(1 + i%3)})
	}
	if _, ok := e.Estimate(k); !ok {
		t.Fatal("no estimate")
	}
	i := 0
	if a := testing.AllocsPerRun(200, func() {
		i++
		e.Observe(Outcome{Provider: k.Provider, Context: k.Context, Failed: i%4 == 0, Exposure: float64(1 + i%3)})
	}); a != 0 {
		t.Fatalf("Observe allocates %v per call", a)
	}
	if a := testing.AllocsPerRun(200, func() { e.Estimate(k) }); a != 0 {
		t.Fatalf("Estimate allocates %v per call", a)
	}
}
