package server

import (
	"fmt"
	"testing"
	"time"

	"socrel/internal/core"
)

func testLimiter(initial, min, max int) *aimdLimiter {
	return newLimiter(LimiterConfig{
		Initial:       initial,
		Min:           min,
		Max:           max,
		LatencyTarget: 10 * time.Millisecond,
		Backoff:       0.5,
	})
}

func TestLimiterShrinksUnderLatencyAndRecovers(t *testing.T) {
	l := testLimiter(8, 1, 16)

	// Injected latency over target: multiplicative decrease.
	l.observe(100*time.Millisecond, nil)
	if l.limit != 4 {
		t.Fatalf("limit after one slow completion = %v, want 4 (8 × 0.5)", l.limit)
	}
	for i := 0; i < 10; i++ {
		l.observe(100*time.Millisecond, nil)
	}
	if l.limit != 1 {
		t.Fatalf("sustained latency should shrink to Min=1, got %v", l.limit)
	}

	// Latency back under target: additive recovery, 1/limit per success.
	l.observe(time.Millisecond, nil)
	if l.limit != 2 {
		t.Fatalf("first recovery step = %v, want 2 (1 + 1/1)", l.limit)
	}
	prev := l.limit
	for i := 0; i < 200; i++ {
		l.observe(time.Millisecond, nil)
		if l.limit < prev {
			t.Fatalf("recovery must be monotone, %v -> %v", prev, l.limit)
		}
		prev = l.limit
	}
	if l.limit != 16 {
		t.Fatalf("full recovery should reach Max=16, got %v", l.limit)
	}
	l.observe(time.Millisecond, nil)
	if l.limit != 16 {
		t.Fatalf("limit must clamp at Max, got %v", l.limit)
	}
}

func TestLimiterBacksOffOnCancellation(t *testing.T) {
	l := testLimiter(8, 1, 16)
	l.observe(time.Millisecond, fmt.Errorf("wrap: %w", core.ErrCanceled))
	if l.limit != 4 {
		t.Fatalf("deadline/cancel completion should back off, limit = %v, want 4", l.limit)
	}
}

func TestLimiterIgnoresDefectErrors(t *testing.T) {
	l := testLimiter(8, 1, 16)
	l.observe(time.Millisecond, core.ErrDefectiveFlow)
	l.observe(100*time.Millisecond, core.ErrNonFinite)
	if l.limit != 8 {
		t.Fatalf("defect errors carry no capacity signal, limit = %v, want 8", l.limit)
	}
}

func TestLimiterAcquireRelease(t *testing.T) {
	l := testLimiter(2, 1, 2)
	if !l.tryAcquire() || !l.tryAcquire() {
		t.Fatal("window of 2 should grant two slots")
	}
	if l.tryAcquire() {
		t.Fatal("third acquire must fail at limit 2")
	}
	l.release()
	if !l.tryAcquire() {
		t.Fatal("released slot should be grantable again")
	}
	if l.inflight != 2 {
		t.Fatalf("inflight = %d, want 2", l.inflight)
	}
}

func TestLimiterDefaults(t *testing.T) {
	l := newLimiter(LimiterConfig{})
	if l.cfg.Min != 1 || l.cfg.Max < l.cfg.Min || l.cfg.Initial < l.cfg.Min {
		t.Fatalf("bad defaults: %+v", l.cfg)
	}
	if l.cfg.LatencyTarget != 50*time.Millisecond || l.cfg.Backoff != 0.9 {
		t.Fatalf("bad defaults: %+v", l.cfg)
	}
}

func TestLatencyDigestEstimate(t *testing.T) {
	// The newest sample weighs 0.2: 0.8*1ms + 0.2*6ms = 2ms.
	d := newLatencyDigest(time.Millisecond)
	d.observe(6 * time.Millisecond)
	if d.estimate != 2*time.Millisecond {
		t.Fatalf("EWMA after one sample = %v, want 2ms", d.estimate)
	}
	d.observe(-time.Second) // negative clamps to zero: 0.8*2ms
	if d.estimate != 1600*time.Microsecond {
		t.Fatalf("EWMA after a negative sample = %v, want 1.6ms", d.estimate)
	}
	if d := newLatencyDigest(0); d.estimate != time.Millisecond {
		t.Fatalf("bad default: estimate %v", d.estimate)
	}
}
