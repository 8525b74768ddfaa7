// Package runtime makes a deployed assembly self-healing: it closes the
// loop the paper's conclusion leaves open between prediction and
// monitoring ("the other side represented by appropriate monitoring
// activities to check whether the assembly of selected services will
// actually achieve the predicted reliability").
//
// Two cooperating pieces:
//
//   - HealthTracker keeps a per-provider SPRT monitor (monitor.Monitor)
//     over streamed invocation outcomes. A Violating verdict quarantines
//     the provider for QuarantineWindow; when the window ends its SPRT is
//     re-armed and it can be selected again. SelectHealthyBinding is the
//     registry selection variant that excludes quarantined providers.
//   - Supervisor ties it to an assembly: it performs the initial
//     reliability-driven binding, streams outcomes, rebinds
//     automatically when the current binding is quarantined, and serves
//     degraded answers (last-known-good with staleness, or Unavailable
//     without one) when an exact Pfail is unavailable.
//
// All time-dependent behavior runs against the Clock interface so tests
// are deterministic: quarantine windows and staleness metadata never
// require a wall-clock sleep in unit tests.
package runtime

import (
	"context"
	"sync"
	"time"
)

// Clock abstracts time for quarantine windows, staleness metadata and
// injected latency. The zero configuration of every type in this package
// uses the real wall clock.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that delivers the time after d has elapsed.
	After(d time.Duration) <-chan time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in the
	// latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// RealClock is the wall clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// After implements Clock.
func (RealClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Sleep implements Clock.
func (RealClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// FakeClock is a deterministic Clock for tests. It supports two styles:
//
//   - auto-advance (AutoAdvance): Sleep records the requested duration,
//     advances the clock, and returns immediately — single-threaded
//     tests assert the recorded delay sequence;
//   - manual: Sleep and After block on virtual timers that only fire when
//     the test calls Advance, with WaitForTimers to synchronize against
//     goroutines that are about to block.
type FakeClock struct {
	mu     sync.Mutex
	cond   *sync.Cond
	now    time.Time
	auto   bool
	slept  []time.Duration
	timers []*fakeTimer
}

type fakeTimer struct {
	at time.Time
	ch chan time.Time
}

// NewFakeClock returns a FakeClock starting at start.
func NewFakeClock(start time.Time) *FakeClock {
	c := &FakeClock{now: start}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// AutoAdvance switches the clock to auto-advance mode: every Sleep
// advances the clock by the requested duration and returns immediately.
func (c *FakeClock) AutoAdvance() {
	c.mu.Lock()
	c.auto = true
	c.mu.Unlock()
}

// Now implements Clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Slept returns every duration passed to Sleep so far, in call order.
func (c *FakeClock) Slept() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.slept...)
}

// After implements Clock: the returned channel fires once Advance moves
// the clock to or past now+d. A non-positive d fires immediately.
func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.timers = append(c.timers, &fakeTimer{at: c.now.Add(d), ch: ch})
	c.cond.Broadcast()
	return ch
}

// Sleep implements Clock. In auto-advance mode it records d, advances the
// clock, and returns (after checking ctx); otherwise it blocks on After.
func (c *FakeClock) Sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	if c.auto {
		c.slept = append(c.slept, d)
		c.now = c.now.Add(d)
		c.mu.Unlock()
		return ctx.Err()
	}
	c.slept = append(c.slept, d)
	c.mu.Unlock()
	select {
	case <-c.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Advance moves the clock forward by d and fires every timer whose
// deadline has been reached, removing it from the pending set.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	pending := c.timers[:0]
	for _, t := range c.timers {
		if !t.at.After(c.now) {
			t.ch <- c.now
		} else {
			pending = append(pending, t)
		}
	}
	c.timers = pending
}

// WaitForTimers blocks until at least n timers are pending — i.e. n
// goroutines have registered an After/Sleep and are about to block on it.
// Tests use it to sequence Advance calls deterministically.
func (c *FakeClock) WaitForTimers(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.timers) < n {
		c.cond.Wait()
	}
}
