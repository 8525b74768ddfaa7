package runtime

import (
	"fmt"
	"time"
)

// AnswerKind tags how an Answer was produced, so callers can always
// distinguish an exact prediction from a degraded one. The zero value is
// invalid: every Answer produced by this package carries an explicit tag.
type AnswerKind int

// Answer kinds.
const (
	// Exact means the value was freshly computed by the engine.
	Exact AnswerKind = iota + 1
	// Stale means the exact computation was unavailable and the value
	// comes from the last known good model: the Supervisor's last exact
	// value, or the serving layer's closed form evaluated at the requested
	// point. AsOf is when that model last answered exactly; Age is the
	// staleness at answer time.
	Stale
	// Unavailable means no answer could be produced at all: no exact
	// value and no last known good. Err carries the cause.
	Unavailable
)

func (k AnswerKind) String() string {
	switch k {
	case Exact:
		return "exact"
	case Stale:
		return "stale"
	case Unavailable:
		return "unavailable"
	default:
		return fmt.Sprintf("AnswerKind(%d)", int(k))
	}
}

// Answer is a possibly degraded Pfail prediction. Exact answers have
// Err == nil; every degraded answer carries the error that forced the
// degradation, so a degraded value can never silently masquerade as
// exact.
type Answer struct {
	// Kind tags the answer (exact / stale / unavailable).
	Kind AnswerKind
	// Pfail is the failure probability: the exact value (Exact) or the
	// last known good value (Stale). Zero and meaningless for
	// Unavailable.
	Pfail float64
	// Provider is the bound provider the value was computed under.
	Provider string
	// AsOf is when the underlying exact value was computed (Exact and
	// Stale answers).
	AsOf time.Time
	// Age is the staleness at answer time (Stale answers).
	Age time.Duration
	// Err is the failure that forced the degradation (nil iff Exact).
	Err error
}

// Reliability returns 1 - Pfail.
func (a Answer) Reliability() float64 { return 1 - a.Pfail }

// IsExact reports whether the answer is a fresh, exact computation.
func (a Answer) IsExact() bool { return a.Kind == Exact && a.Err == nil }

// LastGood is a previously computed exact evaluation, the raw material of
// the Supervisor's Stale answers. The
// serving layer keeps none: it answers Stale by evaluating a scope's
// closed form at the requested point, dated by the scope's last exact
// answer, and passes no last-good value to Degrade.
type LastGood struct {
	// Pfail is the exact value.
	Pfail float64
	// Provider is the binding the value was computed under (may be empty
	// when the caller does not track bindings).
	Provider string
	// At is when the value was computed.
	At time.Time
}

// Degrade builds the best degraded answer available for cause: the last
// known good value with staleness metadata, or Unavailable when there is
// none (last is nil). It never returns an Exact answer: cause must be the
// non-nil error that forced the degradation, and it is always carried in
// the answer so a degraded value cannot masquerade as exact. A solve
// that did not converge degrades like any other failure: its iterate
// difference bounds nothing, so it widens no interval.
func Degrade(cause error, last *LastGood, now time.Time) Answer {
	if last != nil {
		return Answer{
			Kind:     Stale,
			Pfail:    last.Pfail,
			Provider: last.Provider,
			AsOf:     last.At,
			Age:      now.Sub(last.At),
			Err:      cause,
		}
	}
	return Answer{Kind: Unavailable, Err: cause}
}
