package server

import (
	"errors"
	"runtime"
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

// latencyDigest is the admission controller's service-time estimate:
// an EWMA of the latencies of successful evaluations.
type latencyDigest struct {
	estimate time.Duration
}

// digestAlpha is the weight of the newest latency in the EWMA.
const digestAlpha = 0.2

func newLatencyDigest(initial time.Duration) *latencyDigest {
	if initial <= 0 {
		initial = time.Millisecond
	}
	return &latencyDigest{estimate: initial}
}

// observe folds one successful evaluation's latency into the estimate.
func (d *latencyDigest) observe(lat time.Duration) {
	if lat < 0 {
		lat = 0
	}
	d.estimate = time.Duration((1-digestAlpha)*float64(d.estimate) + digestAlpha*float64(lat))
}
