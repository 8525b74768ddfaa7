package main

import (
	"strings"
	"testing"
)

func TestNearestRank(t *testing.T) {
	samples := []float64{10, 3, 7, 1, 9, 2, 8, 5, 4, 6} // 1..10, shuffled
	for _, c := range []struct {
		p     float64
		want  float64
		above int
	}{
		{50, 5, 5},
		{90, 9, 1},
		{91, 10, 0},
		{100, 10, 0},
		{1, 1, 9},
	} {
		got := nearestRank(samples, c.p)
		if got.Value != c.want || got.N != 10 || got.Above != c.above {
			t.Errorf("p%g = %+v, want value %g n 10 above %d", c.p, got, c.want, c.above)
		}
	}
	if got := nearestRank([]float64{42}, 90); got.Value != 42 || got.N != 1 || got.Above != 0 {
		t.Errorf("single sample p90 = %+v", got)
	}
	if got := nearestRank(nil, 50); got != (pct{}) {
		t.Errorf("empty p50 = %+v, want zero", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.data)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		self     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{10, 30}}, 80},
		{"disjoint", []interval{{60, 70}, {10, 30}}, 70},
		// A hedged evaluation races the primary: the overlap counts once.
		{"overlapping hedge", []interval{{10, 50}, {30, 70}}, 40},
		{"nested", []interval{{10, 80}, {20, 30}}, 30},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		// A hedge loser outlives the request: only its part inside counts.
		{"outlives parent", []interval{{90, 150}}, 90},
		{"starts before parent", []interval{{-20, 10}}, 90},
		{"outside parent", []interval{{120, 150}}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.self {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.self)
		}
	}
}

func TestRatioKeepsItsBase(t *testing.T) {
	r := ratio{3, 4}
	if r.Value() != 0.75 || !strings.Contains(r.String(), "3 of 4") {
		t.Errorf("ratio{3,4} = %v %q", r.Value(), r)
	}
	empty := ratio{}
	if empty.Value() != 0 || !strings.Contains(empty.String(), "0 of 0") {
		t.Errorf("empty ratio = %v %q, want 0 with its empty base", empty.Value(), empty)
	}
}
