package server

import (
	"testing"
	"time"
)

func mkWaiter(pri Priority, enq time.Time, budget time.Duration) *waiter {
	w := &waiter{pri: pri, enq: enq, ready: make(chan error, 1)}
	if budget > 0 {
		w.deadline = enq.Add(budget)
	}
	return w
}

func TestQueueDefaults(t *testing.T) {
	q := newAdmissionQueue(0)
	if q.capacity != 64 {
		t.Fatalf("default capacity = %d, want 64", q.capacity)
	}
	if q.lifoDepth != 16 {
		t.Fatalf("default lifoDepth = %d, want 16", q.lifoDepth)
	}
	q = newAdmissionQueue(2)
	if q.lifoDepth != 1 {
		t.Fatalf("small-capacity lifoDepth = %d, want 1", q.lifoDepth)
	}
}

func TestQueueFIFOWhenShallow(t *testing.T) {
	q := newAdmissionQueue(16)
	t0 := time.Unix(0, 0)
	a := mkWaiter(Interactive, t0, 0)
	b := mkWaiter(Interactive, t0.Add(time.Second), 0)
	q.push(a)
	q.push(b)
	if got := q.pop(); got != a {
		t.Fatalf("shallow queue popped %v, want oldest first (FIFO)", got)
	}
	if got := q.pop(); got != b {
		t.Fatalf("second pop = %v, want b", got)
	}
	if q.pop() != nil {
		t.Fatal("empty queue pop should return nil")
	}
}

func TestQueueLIFOWhenDeep(t *testing.T) {
	q := newAdmissionQueue(8) // lifoDepth 8/4 = 2
	t0 := time.Unix(0, 0)
	ws := make([]*waiter, 4)
	for i := range ws {
		ws[i] = mkWaiter(Interactive, t0.Add(time.Duration(i)*time.Second), 0)
		q.push(ws[i])
	}
	// depth 4 > lifoDepth 2: newest first.
	if got := q.pop(); got != ws[3] {
		t.Fatalf("deep queue popped %v, want newest (LIFO)", got)
	}
	if got := q.pop(); got != ws[2] {
		t.Fatalf("still deep: popped %v, want ws[2]", got)
	}
	// depth now 2 == lifoDepth: back to FIFO.
	if got := q.pop(); got != ws[0] {
		t.Fatalf("shallow again: popped %v, want oldest (FIFO)", got)
	}
}

func TestQueuePriorityOrder(t *testing.T) {
	q := newAdmissionQueue(16)
	t0 := time.Unix(0, 0)
	be := mkWaiter(BestEffort, t0, 0)
	ba := mkWaiter(Batch, t0, 0)
	in := mkWaiter(Interactive, t0, 0)
	q.push(be)
	q.push(ba)
	q.push(in)
	want := []*waiter{in, ba, be}
	for i, w := range want {
		if got := q.pop(); got != w {
			t.Fatalf("pop %d = %v, want priority order interactive>batch>best-effort", i, got)
		}
	}
}

func TestQueueSweepShedsExpired(t *testing.T) {
	q := newAdmissionQueue(16)
	t0 := time.Unix(0, 0)
	fresh := mkWaiter(Interactive, t0, time.Hour)
	dead := mkWaiter(Interactive, t0, time.Millisecond)
	forever := mkWaiter(Batch, t0, 0) // no deadline: never swept
	q.push(fresh)
	q.push(dead)
	q.push(forever)

	now := t0.Add(time.Second)
	var shed []*waiter
	q.sweep(
		func(w *waiter) bool { return w.deadline.Before(now) },
		func(w *waiter) { shed = append(shed, w) },
	)
	if len(shed) != 1 || shed[0] != dead {
		t.Fatalf("sweep shed %v, want exactly the expired waiter", shed)
	}
	if q.depth != 2 {
		t.Fatalf("depth after sweep = %d, want 2", q.depth)
	}
	if got := q.pop(); got != fresh {
		t.Fatalf("post-sweep pop = %v, want the fresh waiter", got)
	}
}

func TestQueueRemoveRace(t *testing.T) {
	q := newAdmissionQueue(16)
	w := mkWaiter(Interactive, time.Unix(0, 0), 0)
	q.push(w)
	if !q.remove(w) {
		t.Fatal("remove of a queued waiter should succeed")
	}
	if q.depth != 0 {
		t.Fatalf("depth after remove = %d, want 0", q.depth)
	}
	if q.remove(w) {
		t.Fatal("second remove should report the waiter already gone")
	}
}

func TestQueueFillAndFull(t *testing.T) {
	q := newAdmissionQueue(4)
	for i := 0; i < 4; i++ {
		if q.full() {
			t.Fatalf("full at depth %d of 4", i)
		}
		q.push(mkWaiter(Interactive, time.Unix(0, 0), 0))
	}
	if !q.full() {
		t.Fatal("queue at capacity should report full")
	}
	if q.fill() != 1 {
		t.Fatalf("fill = %v, want 1", q.fill())
	}
}
