package server

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refP95 is the copy-and-sort p95 the sorted window replaced: the
// ceil-rank sample of the last min(len(samples), window) samples.
func refP95(samples []time.Duration, window int) time.Duration {
	if len(samples) > window {
		samples = samples[len(samples)-window:]
	}
	s := append([]time.Duration(nil), samples...)
	for i, v := range s {
		if v < 0 {
			s[i] = 0
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(95*len(s)+99)/100-1]
}

// TestLatencyDigestP95MatchesSortReference checks the sorted-window p95
// against the copy-and-sort reference after every observation, on
// random streams that wrap the window many times. Values are drawn from
// a few distinct latencies so duplicates are common (the eviction must
// remove exactly one copy), with occasional negatives (clamped to 0).
func TestLatencyDigestP95MatchesSortReference(t *testing.T) {
	for _, window := range []int{1, 2, 128} {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			distinct := 1 + rng.Intn(20)
			d := newLatencyDigest(time.Millisecond, 0.2, window)
			var stream []time.Duration
			for i := 0; i < 5*window+300; i++ {
				v := time.Duration(rng.Intn(distinct)) * time.Microsecond
				if rng.Intn(50) == 0 {
					v = -v
				}
				d.observe(v)
				stream = append(stream, v)
				if got, want := d.p95(), refP95(stream, window); got != want {
					t.Fatalf("window %d seed %d after %d samples: p95 = %v, reference %v", window, seed, len(stream), got, want)
				}
			}
		}
	}
}

func TestLatencyDigestObserveP95AllocFree(t *testing.T) {
	for _, window := range []int{1, 2, 128} {
		d := newLatencyDigest(time.Millisecond, 0.2, window)
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			i++
			d.observe(time.Duration(i%97) * time.Microsecond)
			_ = d.p95()
		})
		if allocs != 0 {
			t.Fatalf("window %d: observe+p95 made %v allocs/op, want 0", window, allocs)
		}
	}
}
