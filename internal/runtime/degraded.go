package runtime

import (
	"errors"
	"fmt"
	"time"

	"socrel/internal/linalg"
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
	// Bounded means no exact value was available and an iterative solver
	// stopped short: Lo and Hi are the last known good value widened by
	// the solver's residual (the vacuous [0, 1] without one), and Pfail
	// holds the upper end. The residual is an iterate difference, not a
	// certified error bound.
	Bounded
	// Unavailable means no answer could be produced at all: no exact
	// value, no last known good, no residual bound. Err carries the cause.
	Unavailable
)

func (k AnswerKind) String() string {
	switch k {
	case Exact:
		return "exact"
	case Stale:
		return "stale"
	case Bounded:
		return "bounded"
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
	// Kind tags the answer (exact / stale / bounded / unavailable).
	Kind AnswerKind
	// Pfail is the failure probability: the exact value (Exact), the last
	// known good value (Stale), or the conservative upper bound (Bounded).
	// Zero and meaningless for Unavailable.
	Pfail float64
	// Lo and Hi are the interval of a Bounded answer.
	Lo, Hi float64
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

// Reliability returns 1 - Pfail (for Bounded answers: the conservative
// lower bound on reliability).
func (a Answer) Reliability() float64 { return 1 - a.Pfail }

// IsExact reports whether the answer is a fresh, exact computation.
func (a Answer) IsExact() bool { return a.Kind == Exact && a.Err == nil }

// LastGood is a previously computed exact evaluation, the raw material of
// the Supervisor's Stale (and residual-centered Bounded) answers. The
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

// Degrade builds the best degraded answer available for cause: a residual
// bound when the cause carries a *linalg.NoConvergenceError, otherwise the
// last known good value (nil when none exists) with staleness metadata,
// otherwise Unavailable. It never returns an Exact answer: cause must be
// the non-nil error that forced the degradation, and it is always carried
// in the answer so a degraded value cannot masquerade as exact.
//
// The residual bound is conservative by construction: the iterative
// solvers ascend to the absorption probability and stop with an infinity-
// norm iterate difference of Residual, so the last known good value
// widened by the residual (clamped to [0,1]) brackets where the exact
// solve was heading. Without any last known good value the bound
// degenerates to the vacuous [0,1].
func Degrade(cause error, last *LastGood, now time.Time) Answer {
	var nce *linalg.NoConvergenceError
	if errors.As(cause, &nce) {
		lo, hi := 0.0, 1.0
		center := 0.0
		if last != nil {
			center = last.Pfail
			lo = clamp01(center - nce.Residual)
			hi = clamp01(center + nce.Residual)
		}
		a := Answer{Kind: Bounded, Pfail: hi, Lo: lo, Hi: hi, Err: cause}
		if last != nil {
			a.Provider = last.Provider
			a.AsOf = last.At
			a.Age = now.Sub(last.At)
		}
		return a
	}
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

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
