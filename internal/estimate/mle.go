package estimate

// Maximum-likelihood estimation for the paper's exponential failure laws.
//
// Eqs. (1)-(2) model a provider invocation as surviving an exposure t
// (CPU work N/s, network transfer B/b) under a constant failure rate r:
// Pfail(t) = 1 - exp(-r t). An outcome stream is therefore a grouped
// exponential sample — each observation reports only whether the
// invocation outlived its exposure — with log likelihood
//
//	L(r) = sum_fail log(1 - exp(-r t_i)) - r * sum_succ t_i
//
// The score U(r) = sum_fail t_i/(exp(r t_i) - 1) - sum_succ t_i is
// strictly decreasing, so the MLE is the unique root, found here by
// bisection (deterministic, immune to the flat-likelihood pathologies a
// Newton step can hit). In the rare-failure limit (r t << 1) the root
// collapses to the classic failures-per-exposure estimator d/T; at
// higher rates the naive d/T is biased low (a failure did not survive
// its whole exposure) and the root corrects it — for constant exposure t
// it equals the exact inversion -log(1 - d/n)/t.
//
// Confidence intervals come from the log-scale normal approximation with
// the observed Fisher information I(r) = sum_fail t_i^2 *
// exp(r t_i)/(exp(r t_i)-1)^2: se(log r^) = 1/(r^ sqrt(I)), which
// reduces to the familiar 1/sqrt(d) for rare failures and stays
// positive. With zero failures the MLE is degenerate at 0; the one-sided
// exact bound P(no failures | r, T) = exp(-r T) = 1 - confidence gives
// hi = -log(1-confidence)/T — the "rule of three" (3/T at 95%) — so a
// censored, low-traffic provider reports an interval that only widens
// with silence instead of an oscillating point estimate.

import (
	"cmp"
	"math"
	"slices"
)

// Estimate is a fitted failure rate with its confidence interval and the
// evidence behind it.
type Estimate struct {
	// Rate is the MLE failure rate (failures per unit exposure). Zero
	// when no failures were observed.
	Rate float64
	// Lo and Hi bound the rate at the estimator's confidence level.
	Lo, Hi float64
	// Failures and Observations count the windowed evidence; Exposure is
	// its total exposure.
	Failures     int
	Observations int
	Exposure     float64
	// MeanLatency is the mean observed latency over the window, in
	// seconds (0 with no data).
	MeanLatency float64
}

// PfailAt maps the rate interval through the failure law at the given
// exposure: returns the point estimate and bounds of
// 1 - exp(-rate * exposure).
func (e Estimate) PfailAt(exposure float64) (pfail, lo, hi float64) {
	f := func(r float64) float64 { return -math.Expm1(-r * exposure) }
	return f(e.Rate), f(e.Lo), f(e.Hi)
}

// expGroup is a run of n windowed failures sharing exposure t. A window
// holds few distinct exposures (a fixed-size request has exactly one),
// so the score and information sums run over groups, not outcomes.
type expGroup struct {
	t float64
	n int
}

// groupExposures folds single-failure groups into one group per distinct
// exposure, in place: sort by exposure, then run-length encode. It
// returns the grouped prefix of g.
func groupExposures(g []expGroup) []expGroup {
	slices.SortFunc(g, func(a, b expGroup) int { return cmp.Compare(a.t, b.t) })
	out := g[:0]
	for _, x := range g {
		if k := len(out); k > 0 && out[k-1].t == x.t {
			out[k-1].n += x.n
			continue
		}
		out = append(out, x)
	}
	return out
}

// score is the log-likelihood derivative U(r) for the grouped failure
// exposures fails and total success exposure succExp.
func score(r float64, fails []expGroup, succExp float64) float64 {
	u := -succExp
	for _, g := range fails {
		u += float64(g.n) * g.t / math.Expm1(r*g.t)
	}
	return u
}

// fitRate computes the MLE and confidence interval from the window's
// grouped failure exposures (see groupExposures) and total success
// exposure. Returns ok=false when there is no usable exposure.
func fitRate(fails []expGroup, succExp float64, confidence float64) (rate, lo, hi float64, ok bool) {
	total := succExp
	d := 0
	for _, g := range fails {
		total += float64(g.n) * g.t
		d += g.n
	}
	if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
		return 0, 0, 0, false
	}
	if d == 0 {
		// Censored sample: exact one-sided upper bound.
		return 0, 0, -math.Log(1-confidence) / succExp, true
	}
	if succExp <= 0 {
		// Every observation failed: the likelihood has no interior
		// maximum. Continuity correction: credit half a mean exposure
		// of survival, the grouped analogue of (d - 1/2) successes.
		succExp = total / float64(2*d)
	}

	// U is strictly decreasing with U(0+) = +inf and U(inf) = -succExp:
	// bracket the root from the rare-failure guess d/T, then bisect.
	rate = float64(d) / total
	lo0, hi0 := rate, rate
	for score(lo0, fails, succExp) < 0 {
		lo0 /= 2
	}
	for score(hi0, fails, succExp) > 0 {
		hi0 *= 2
	}
	for i := 0; i < 100 && hi0-lo0 > 1e-14*hi0; i++ {
		mid := (lo0 + hi0) / 2
		if score(mid, fails, succExp) > 0 {
			lo0 = mid
		} else {
			hi0 = mid
		}
	}
	rate = (lo0 + hi0) / 2

	// Observed Fisher information at the MLE.
	info := 0.0
	for _, g := range fails {
		em := math.Expm1(rate * g.t)
		info += float64(g.n) * g.t * g.t * (em + 1) / (em * em)
	}
	seLog := 1 / (rate * math.Sqrt(info))
	z := zQuantile(confidence)
	return rate, rate * math.Exp(-z*seLog), rate * math.Exp(z*seLog), true
}

// zQuantile returns the two-sided normal quantile for the given
// confidence level, i.e. z with P(|N(0,1)| <= z) = confidence.
func zQuantile(confidence float64) float64 {
	// Invert via the one-sided tail: z = Phi^-1((1+confidence)/2).
	return normQuantile((1 + confidence) / 2)
}

// normQuantile is Acklam's rational approximation to the standard normal
// inverse CDF (relative error < 1.15e-9 over (0,1)), plenty for interval
// construction and dependency-free.
func normQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	const (
		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
