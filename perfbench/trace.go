package main

import (
	"context"
	"runtime"
	"sync"
	"time"

	"socrel/internal/core"
	"socrel/internal/estimate"
)

// The tracer records spans around calls from the benchmark's own files
// into each layer's public functions. Nothing inside the program is
// instrumented: a layer's time is the span of the call that enters it,
// and its self time that span minus the union of the child spans the
// benchmark also recorded. Spans are aggregated in memory and printed
// once the run ends; untraced runs never construct a tracer.
type tracer struct {
	base time.Time

	mu      sync.Mutex
	samples map[string][]float64 // per-span durations, in the metric's unit
	counts  map[string]float64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), samples: map[string][]float64{}, counts: map[string]float64{}}
}

// now is the tracer's monotonic clock in nanoseconds.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records one sample under name.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// count adds n to a counter.
func (t *tracer) count(name string, n float64) {
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

func (t *tracer) median(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.samples[name])
}

func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// opSpan is one client request's span and the evaluator spans it caused.
// Evaluations run on server goroutines, so children arrive under a lock;
// the request's context carries the span to them.
type opSpan struct {
	mu       sync.Mutex
	children []interval
}

type opSpanKey struct{}

func withOp(ctx context.Context, s *opSpan) context.Context {
	return context.WithValue(ctx, opSpanKey{}, s)
}

func (s *opSpan) addChild(iv interval) {
	s.mu.Lock()
	s.children = append(s.children, iv)
	s.mu.Unlock()
}

// self returns the op's self time: its span minus the union of the
// children recorded so far (a hedge loser still running is clipped).
func (s *opSpan) self(op interval) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return selfTime(op, s.children)
}

// childOf records an evaluator span both as a sample and as a child of
// the request whose context it ran under.
func (t *tracer) childOf(ctx context.Context, iv interval) {
	if s, ok := ctx.Value(opSpanKey{}).(*opSpan); ok {
		s.addChild(iv)
	}
	t.add("core.eval_us", float64(iv.End-iv.Start)/1e3)
	t.count("eval_calls", 1)
}

// tracedEval is the timing server.Evaluator/BatchEvaluator wrapper
// around a compiled assembly.
type tracedEval struct {
	ca *core.CompiledAssembly
	tr *tracer
}

func (e *tracedEval) PfailCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	s := e.tr.now()
	p, err := e.ca.PfailCtx(ctx, service, params...)
	e.tr.childOf(ctx, interval{s, e.tr.now()})
	return p, err
}

// PfailBatchCtx times the batch kernel and counts the heap allocations
// made while it runs (process-wide, so the client stays idle meanwhile:
// it is blocked in ServeBatch). Reading the allocation counter stops the
// world; that time is the tracer's, so it is filed as a child span too
// and never counts as the server's self time.
func (e *tracedEval) PfailBatchCtx(ctx context.Context, service string, paramSets [][]float64) ([]float64, error) {
	var m0, m1 runtime.MemStats
	r0 := e.tr.now()
	runtime.ReadMemStats(&m0)
	s := e.tr.now()
	out, err := e.ca.PfailBatchCtx(ctx, service, paramSets)
	end := e.tr.now()
	runtime.ReadMemStats(&m1)
	if sp, ok := ctx.Value(opSpanKey{}).(*opSpan); ok {
		sp.addChild(interval{r0, e.tr.now()})
	}
	e.tr.count("batch_ns", float64(end-s))
	e.tr.count("batch_points", float64(len(paramSets)))
	e.tr.count("batch_mallocs", float64(m1.Mallocs-m0.Mallocs))
	e.tr.count("eval_calls", 1)
	return out, err
}

// tracedRepredictor is the timing estimate.Repredictor wrapper around
// the runtime Supervisor. The span it records is the reactor
// observation's child.
type tracedRepredictor struct {
	inner estimate.Repredictor
	tr    *tracer
	last  int64 // ns spent in Repredict since the caller last reset it
}

func (r *tracedRepredictor) Repredict(ctx context.Context, provider, attr string, rate float64) (float64, float64, error) {
	s := r.tr.now()
	o, n, err := r.inner.Repredict(ctx, provider, attr, rate)
	d := r.tr.now() - s
	r.last += d
	r.tr.add("runtime.repredict_ms", float64(d)/1e6)
	return o, n, err
}

// memDelta is the process allocation activity between two snapshots.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// end returns bytes allocated and GC cycles completed since start.
func (d *memDelta) end() (bytes, gcs float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc - d.before.TotalAlloc), float64(m.NumGC - d.before.NumGC)
}

// reset drops every sample and counter except the named sample series.
func (t *tracer) reset(keep ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := map[string][]float64{}
	for _, k := range keep {
		kept[k] = t.samples[k]
	}
	t.samples, t.counts = kept, map[string]float64{}
}
