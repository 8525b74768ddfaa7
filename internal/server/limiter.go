package server

import (
	"errors"
	"runtime"
	"slices"
	"time"

	"socrel/internal/core"
)

// LimiterConfig parameterizes the AIMD concurrency limiter.
type LimiterConfig struct {
	// Initial is the starting in-flight window (default GOMAXPROCS,
	// clamped into [Min, Max]).
	Initial int
	// Min and Max clamp the window (defaults 1 and 4*GOMAXPROCS).
	Min, Max int
	// LatencyTarget is the per-evaluation latency the limiter steers
	// toward: completions at or under it grow the window additively,
	// completions over it (and deadline expiries) shrink it
	// multiplicatively (default 50ms).
	LatencyTarget time.Duration
	// Backoff is the multiplicative-decrease factor in (0, 1)
	// (default 0.9).
	Backoff float64
}

func (c LimiterConfig) withDefaults() LimiterConfig {
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = 4 * runtime.GOMAXPROCS(0)
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.Initial <= 0 {
		c.Initial = runtime.GOMAXPROCS(0)
	}
	if c.Initial < c.Min {
		c.Initial = c.Min
	}
	if c.Initial > c.Max {
		c.Initial = c.Max
	}
	if c.LatencyTarget <= 0 {
		c.LatencyTarget = 50 * time.Millisecond
	}
	if c.Backoff <= 0 || c.Backoff >= 1 {
		c.Backoff = 0.9
	}
	return c
}

// aimdLimiter sizes the in-flight window from measured latency instead of
// a static GOMAXPROCS guess: additive increase while completions meet the
// latency target, multiplicative decrease when latency blows past it or
// evaluations start dying on their deadlines. It is not safe for
// concurrent use on its own; the Server guards it with its mutex.
type aimdLimiter struct {
	cfg      LimiterConfig
	limit    float64
	inflight int
}

func newLimiter(cfg LimiterConfig) *aimdLimiter {
	cfg = cfg.withDefaults()
	return &aimdLimiter{cfg: cfg, limit: float64(cfg.Initial)}
}

// limitInt is the current integral window.
func (l *aimdLimiter) limitInt() int {
	n := int(l.limit)
	if n < l.cfg.Min {
		n = l.cfg.Min
	}
	return n
}

// tryAcquire claims one in-flight slot if the window has room.
func (l *aimdLimiter) tryAcquire() bool {
	if l.inflight >= l.limitInt() {
		return false
	}
	l.inflight++
	return true
}

// release returns one in-flight slot.
func (l *aimdLimiter) release() {
	if l.inflight > 0 {
		l.inflight--
	}
}

// observe feeds one completed evaluation into the AIMD controller.
// Successful completions under the latency target grow the window by
// 1/limit (one slot per round-trip of the full window, the classic AIMD
// probe); slow completions and canceled/deadline-expired evaluations
// shrink it multiplicatively. Defect errors (defective flows, non-finite
// laws) carry no capacity signal and leave the window alone.
func (l *aimdLimiter) observe(latency time.Duration, err error) {
	switch {
	case err == nil && latency <= l.cfg.LatencyTarget:
		l.limit += 1 / l.limit
	case err == nil || errors.Is(err, core.ErrCanceled):
		l.limit *= l.cfg.Backoff
	default:
		return
	}
	if l.limit < float64(l.cfg.Min) {
		l.limit = float64(l.cfg.Min)
	}
	if l.limit > float64(l.cfg.Max) {
		l.limit = float64(l.cfg.Max)
	}
}

// latencyDigest tracks the observed service time two ways: an EWMA used
// as the admission controller's service-time estimate, and a sliding
// window of recent samples for the p95 that paces request hedging. The
// window is kept twice: in arrival order (ring, to know which sample a
// new one evicts) and ascending (sorted, so the p95 is an index read).
type latencyDigest struct {
	alpha    float64
	estimate time.Duration
	ring     []time.Duration
	sorted   []time.Duration // the n samples of ring, ascending
	n, idx   int
}

func newLatencyDigest(initial time.Duration, alpha float64, window int) *latencyDigest {
	if initial <= 0 {
		initial = time.Millisecond
	}
	if alpha <= 0 || alpha > 1 {
		alpha = 0.2
	}
	if window <= 0 {
		window = 128
	}
	return &latencyDigest{
		alpha:    alpha,
		estimate: initial,
		ring:     make([]time.Duration, window),
		sorted:   make([]time.Duration, window),
	}
}

// observe folds one successful evaluation's latency into the digest.
// Keeping the window sorted costs at most two binary searches and one
// memmove of the samples between the evicted one and the new one.
func (d *latencyDigest) observe(lat time.Duration) {
	if lat < 0 {
		lat = 0
	}
	d.estimate = time.Duration((1-d.alpha)*float64(d.estimate) + d.alpha*float64(lat))
	s := d.sorted[:d.n]
	j, _ := slices.BinarySearch(s, lat) // s[:j] < lat <= s[j:]
	if d.n < len(d.ring) {
		// Still filling: shift s[j:] up one.
		copy(d.sorted[j+1:d.n+1], s[j:])
		d.sorted[j] = lat
		d.n++
	} else {
		// Full: the evicted sample's slot i closes as lat's opens, so
		// only the samples between them move, toward i.
		i, _ := slices.BinarySearch(s, d.ring[d.idx])
		if j > i {
			copy(s[i:j-1], s[i+1:j])
			s[j-1] = lat
		} else {
			copy(s[j+1:i+1], s[j:i])
			s[j] = lat
		}
	}
	d.ring[d.idx] = lat
	d.idx = (d.idx + 1) % len(d.ring)
}

// p95 returns the 95th percentile of the recent-latency window, falling
// back to the EWMA estimate before any sample exists.
func (d *latencyDigest) p95() time.Duration {
	if d.n == 0 {
		return d.estimate
	}
	k := (95*d.n+99)/100 - 1 // ceil rank: the sample ≥ 95% of the window
	return d.sorted[k]
}
