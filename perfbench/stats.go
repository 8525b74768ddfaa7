package main

import (
	"fmt"
	"math"
	"sort"
)

// pct is one nearest-rank percentile together with the sample count it
// was taken from, so a reader can judge how many samples lie beyond it.
type pct struct {
	Value float64
	N     int // samples
	Above int // samples strictly after the percentile's rank
}

// nearestRank returns the p-th percentile (0 < p <= 100) of samples by
// the nearest-rank rule: the smallest sample such that at least p% of
// the samples are <= it. samples is sorted in place. An empty slice
// yields a zero pct with N == 0.
func nearestRank(samples []float64, p float64) pct {
	n := len(samples)
	if n == 0 {
		return pct{}
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return pct{Value: samples[rank-1], N: n, Above: n - rank}
}

// median is the 50th nearest-rank percentile's value (0 when empty).
func median(samples []float64) float64 { return nearestRank(samples, 50).Value }

// quartiles returns Q1, median and Q3 by the same rule as Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method), so
// the steadiness report matches how the benchmark's bounds are judged.
// values is sorted in place; it needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	sort.Float64s(values)
	n := len(values)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return values[0], values[0], values[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (values[j-1]*float64(4-delta) + values[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// interval is a half-open span [Start, End) in nanoseconds on the
// tracer's monotonic clock.
type interval struct{ Start, End int64 }

// unionWithin returns how much of parent the children cover, counting
// overlapping children once. Children are clipped to parent first:
// hedged evaluations race each other and the loser can outlive the
// request that launched it. children is sorted in place.
func unionWithin(parent interval, children []interval) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var covered int64
	curS, curE := int64(0), int64(-1)
	open := false
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			covered += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		covered += curE - curS
	}
	return covered
}

// selfTime is the part of parent that none of its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.End - parent.Start - unionWithin(parent, children)
}

// ratio is a share that keeps its base: Num out of Den. A ratio over an
// empty base reads 0 and says so, instead of turning into NaN.
type ratio struct {
	Num, Den float64
}

// Value is Num/Den, or 0 over an empty base.
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.4f (%g of %g)", r.Value(), r.Num, r.Den)
}

// layerSet is a traced run's per-layer metrics. Every share is stored
// with its base, so the report can say what it is a share of.
type layerSet struct {
	values map[string]float64
	bases  map[string]ratio
}

func newLayerSet() layerSet {
	return layerSet{values: map[string]float64{}, bases: map[string]ratio{}}
}

func (l layerSet) put(name string, v float64) { l.values[name] = v }

func (l layerSet) share(name string, r ratio) {
	l.values[name] = r.Value()
	l.bases[name] = r
}
