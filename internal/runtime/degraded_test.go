package runtime

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"socrel/internal/linalg"
)

// TestDegradeBoundedFromResidual checks that a solve that stopped short
// degrades like any other failure: with a last-good value the answer is
// Stale at that value, and the residual widens nothing.
func TestDegradeBoundedFromResidual(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	cause := fmt.Errorf("solve: %w", &linalg.NoConvergenceError{Iterations: 9, Residual: 0.05})
	last := &LastGood{Pfail: 0.02, Provider: "p", At: now.Add(-3 * time.Second)}

	a := Degrade(cause, last, now)
	if a.Kind != Stale || a.Pfail != 0.02 {
		t.Fatalf("answer = %+v, want stale 0.02", a)
	}
	if a.Provider != "p" || a.Age != 3*time.Second || !a.AsOf.Equal(last.At) {
		t.Fatalf("answer = %+v, want provider p aged 3s", a)
	}
	if !errors.Is(a.Err, linalg.ErrNoConvergence) || a.IsExact() {
		t.Fatalf("stale answer mis-tagged: %+v", a)
	}
	if math.Abs(a.Reliability()-0.98) > 1e-12 {
		t.Fatalf("Reliability = %g, want 0.98", a.Reliability())
	}
}

// TestDegradeBoundedWithoutHistoryIsVacuous checks that a solve that
// stopped short with no last-good value is Unavailable, not a vacuous
// [0, 1] interval.
func TestDegradeBoundedWithoutHistoryIsVacuous(t *testing.T) {
	cause := &linalg.NoConvergenceError{Iterations: 1, Residual: 0.5}
	a := Degrade(cause, nil, time.Unix(0, 0))
	if a.Kind != Unavailable || a.Pfail != 0 {
		t.Fatalf("answer = %+v, want unavailable", a)
	}
	if !errors.Is(a.Err, linalg.ErrNoConvergence) || a.IsExact() {
		t.Fatalf("unavailable answer mis-tagged: %+v", a)
	}
}

func TestDegradeStale(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	cause := errors.New("breaker open")
	last := &LastGood{Pfail: 0.1, Provider: "p", At: now.Add(-time.Minute)}
	a := Degrade(cause, last, now)
	if a.Kind != Stale || a.Pfail != 0.1 || a.Provider != "p" {
		t.Fatalf("answer = %+v, want stale 0.1 from p", a)
	}
	if a.Age != time.Minute || !a.AsOf.Equal(last.At) {
		t.Fatalf("staleness = %v as of %v, want 1m as of %v", a.Age, a.AsOf, last.At)
	}
	if a.Err != cause || a.IsExact() {
		t.Fatalf("stale answer mis-tagged: %+v", a)
	}
}

func TestDegradeUnavailable(t *testing.T) {
	cause := errors.New("nothing works")
	a := Degrade(cause, nil, time.Unix(0, 0))
	if a.Kind != Unavailable || a.Err != cause || a.IsExact() {
		t.Fatalf("answer = %+v, want unavailable carrying the cause", a)
	}
}

func TestAnswerKindStrings(t *testing.T) {
	for kind, want := range map[AnswerKind]string{
		Exact:          "exact",
		Stale:          "stale",
		Unavailable:    "unavailable",
		AnswerKind(42): "AnswerKind(42)",
	} {
		if got := kind.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(kind), got, want)
		}
	}
}
