package server

import (
	"time"
)

// Priority classes requests into shedding tiers: interactive traffic is
// shed last, best-effort first. The zero value is Interactive.
type Priority int

// Priority classes, most to least protected.
const (
	// Interactive requests are shed only when the queue is completely
	// full.
	Interactive Priority = iota
	// Batch requests are shed once the queue fill crosses their class
	// threshold.
	Batch
	// BestEffort requests are shed first as saturation builds.
	BestEffort
	numPriorities
)

func (p Priority) String() string {
	switch p {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	case BestEffort:
		return "best-effort"
	default:
		return "invalid"
	}
}

// valid reports whether p names a real class.
func (p Priority) valid() bool { return p >= Interactive && p < numPriorities }

// waiter is one admitted request parked in the queue until a concurrency
// slot frees (or its deadline budget runs out). ready carries the
// dispatch decision: nil grants a slot, non-nil is the shed reason. Both
// granted and the queue slices are guarded by the Server mutex.
type waiter struct {
	pri      Priority
	enq      time.Time
	deadline time.Time // zero = none
	ready    chan error
	granted  bool
}

// admissionQueue is the bounded, deadline-aware holding area between
// admission and dispatch: one slice per priority class, popped in class
// order. Within a class the pop order is adaptive: FIFO while the total
// backlog is shallow (fairness), switching to LIFO once the backlog
// crosses lifoDepth (a quarter of capacity, at least 1) — under saturation the newest request is the one
// whose deadline budget is most likely to survive the remaining wait,
// while old entries are swept as their budgets expire instead of being
// served first and dying anyway.
type admissionQueue struct {
	capacity  int
	lifoDepth int
	q         [numPriorities][]*waiter
	depth     int
}

func newAdmissionQueue(capacity int) *admissionQueue {
	if capacity <= 0 {
		capacity = 64
	}
	return &admissionQueue{capacity: capacity, lifoDepth: max(capacity/4, 1)}
}

// full reports whether the queue is at capacity.
func (a *admissionQueue) full() bool { return a.depth >= a.capacity }

// fill is the current fill fraction in [0, 1].
func (a *admissionQueue) fill() float64 {
	return float64(a.depth) / float64(a.capacity)
}

// push parks w. The caller has already checked full().
func (a *admissionQueue) push(w *waiter) {
	a.q[w.pri] = append(a.q[w.pri], w)
	a.depth++
}

// remove unlinks w (a caller abandoning its wait). It reports whether w
// was still queued; false means dispatch already granted or shed it and
// the caller must consume w.ready instead.
func (a *admissionQueue) remove(w *waiter) bool {
	q := a.q[w.pri]
	for i, x := range q {
		if x == w {
			a.q[w.pri] = append(q[:i], q[i+1:]...)
			a.depth--
			return true
		}
	}
	return false
}

// sweep removes every waiter whose deadline budget can no longer cover
// the estimated service time (expired(w) == true), calling onShed for
// each. Sweeping runs at every dispatch so a saturated queue sheds its
// dead entries instead of letting them occupy capacity ahead of
// requests that can still make their deadlines.
func (a *admissionQueue) sweep(expired func(*waiter) bool, onShed func(*waiter)) {
	for pri := range a.q {
		q := a.q[pri]
		kept := q[:0]
		for _, w := range q {
			if w.deadline.IsZero() || !expired(w) {
				kept = append(kept, w)
				continue
			}
			a.depth--
			onShed(w)
		}
		// Clear the tail so swept waiters are not retained.
		for i := len(kept); i < len(q); i++ {
			q[i] = nil
		}
		a.q[pri] = kept
	}
}

// pop removes and returns the next waiter to dispatch: classes in
// priority order, adaptive FIFO/LIFO within the class. It returns nil
// when the queue is empty.
func (a *admissionQueue) pop() *waiter {
	for pri := range a.q {
		q := a.q[pri]
		if len(q) == 0 {
			continue
		}
		var w *waiter
		if a.depth > a.lifoDepth {
			w = q[len(q)-1]
			q[len(q)-1] = nil
			a.q[pri] = q[:len(q)-1]
		} else {
			w = q[0]
			copy(q, q[1:])
			q[len(q)-1] = nil
			a.q[pri] = q[:len(q)-1]
		}
		a.depth--
		return w
	}
	return nil
}
