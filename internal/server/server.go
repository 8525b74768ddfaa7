// Package server is the overload-resilient serving layer: a
// concurrency-limited prediction front end that keeps the engine
// answering when offered load exceeds capacity. It wraps any evaluator
// (core.CompiledAssembly in production, core.Evaluator for assemblies
// outside the compiled domain) behind three cooperating mechanisms:
//
//   - a bounded, deadline-aware admission queue (queue.go): requests
//     whose remaining deadline cannot cover the observed service-time
//     estimate are shed at the door, queued entries whose budget expires
//     are swept at every dispatch, and the pop order adapts from FIFO to
//     LIFO as the backlog deepens;
//   - an AIMD concurrency limiter (limiter.go) sizing the in-flight
//     window from measured latency, so capacity tracks the hardware and
//     the workload rather than a static GOMAXPROCS guess;
//   - priority classes with per-class shedding thresholds: best-effort
//     traffic is shed first, interactive last.
//
// An admitted request evaluates on the caller's goroutine, holding one
// limiter slot. A request whose deadline passed before its evaluation
// could start is not evaluated. One with a later deadline evaluates
// under a context that a watcher on the server's clock cancels at the
// deadline; that watcher is the only goroutine the server starts. A
// single point whose evaluator reports Inline (core.CompiledAssembly
// does for a root compiled to a closed form, whose ~0.2 µs evaluation no
// watcher needs to interrupt) skips the watcher; a batch never does,
// since its grid has no size bound. A request with no deadline
// evaluates under its own context. No request is evaluated twice: every
// evaluator is an in-process computation, so a duplicate would re-run
// the same work on the same CPUs.
//
// Every request gets a tagged runtime.Answer instead of a silent
// timeout. The server keeps one record per scope: the time of its last
// exact answer. When the server itself refuses to evaluate a request
// (a shed, a drain, an expiry or cancellation while queued, a deadline
// that passed before evaluation) and the scope has a record and an
// inline evaluator, the answer is Stale: the scope's closed form
// evaluated at the requested point, as of the record. Any other failure
// degrades through runtime.Degrade with no last-good value, so it is
// Unavailable. The exact ⇔ nil-error invariant of the runtime package
// holds throughout.
//
// All time-dependent behavior runs against runtime.Clock, so queue,
// limiter and deadline tests are deterministic with a FakeClock and no
// wall-clock sleeps.
package server

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"socrel/internal/core"
	socruntime "socrel/internal/runtime"
)

// Evaluator is the prediction backend: *core.CompiledAssembly and
// *core.Evaluator both satisfy it.
type Evaluator interface {
	PfailCtx(ctx context.Context, service string, params ...float64) (float64, error)
}

// InlineEvaluator is an optional evaluator method. An evaluator
// implements it to report, per request, that evaluating service is a
// sub-microsecond in-memory computation that does no I/O and cannot
// block: core.CompiledAssembly reports true for a root it compiled to a
// closed form. Every request evaluates on the caller's goroutine with
// admission, a limiter slot and every stat and outcome; Inline decides
// only two things. A single point (Serve) it reports evaluates under its
// own context even with a deadline, with no deadline watcher, because
// the evaluation ends long before a watcher could act; a batch grid has
// no such bound and always gets the watcher. And a request the
// server refuses to evaluate is answered Stale, from that computation
// at the requested point, once its scope has an exact answer. ctx is
// the request's context, so a dispatching evaluator can ask the
// evaluator the request selects.
type InlineEvaluator interface {
	Inline(ctx context.Context, service string) bool
}

// BatchEvaluator is the optional batch fast path; when the backend
// provides it (core.CompiledAssembly does), ServeBatch routes whole
// parameter grids through it instead of looping single evaluations.
type BatchEvaluator interface {
	PfailBatchCtx(ctx context.Context, service string, paramSets [][]float64) ([]float64, error)
}

// Config parameterizes a Server.
type Config struct {
	// Service is the default evaluation target for requests that leave
	// Request.Service empty.
	Service string
	// QueueCapacity bounds the admission queue (default 64). Once the
	// backlog is deeper than a quarter of it, the queue pops newest
	// first.
	QueueCapacity int
	// Limiter configures the AIMD concurrency limiter.
	Limiter LimiterConfig
	// InitialEstimate seeds the service-time estimate (an EWMA of
	// successful evaluation latencies, factor 0.2) before any completion
	// has been observed (default 1ms).
	InitialEstimate time.Duration
	// Clock drives every queue, limiter and deadline decision (default
	// the wall clock).
	Clock socruntime.Clock
	// OnOutcome, when set, receives one Outcome for every Serve request
	// whose evaluation actually ran. Shed or expired requests emit
	// nothing: they observed the server, not the model. Nor does a
	// request the evaluator rejected for its own shape (core.ErrorClass
	// "arity" or "unknown-service"): it observed the client. It is called
	// outside the server's lock, so calling back into the server is
	// safe. This is the outcome stream estimation layers consume.
	OnOutcome func(Outcome)
}

// Outcome describes one completed evaluation, as published to
// Config.OnOutcome: what was evaluated, whether it succeeded, and how
// long it took on the server's clock.
type Outcome struct {
	// Service is the evaluation target and Scope the request's scope.
	Service, Scope string
	// Success reports whether the evaluation produced an exact answer.
	Success bool
	// Latency is the measured evaluation latency.
	Latency time.Duration
	// At is when the evaluation completed, on the server's clock.
	At time.Time
}

// Saturation summarizes how deep into overload the server is, derived
// from the queue fill, for health checks and stats. Shedding follows
// the same fill through the class thresholds.
type Saturation int

// Saturation levels.
const (
	// SatNormal: shallow backlog.
	SatNormal Saturation = iota
	// SatElevated: backlog building.
	SatElevated
	// SatSevere: best-effort and batch classes shedding.
	SatSevere
	// SatOverload: queue full; everything sheds.
	SatOverload
)

func (s Saturation) String() string {
	switch s {
	case SatNormal:
		return "normal"
	case SatElevated:
		return "elevated"
	case SatSevere:
		return "severe"
	case SatOverload:
		return "overload"
	default:
		return "invalid"
	}
}

// Queue fill fractions at which saturation levels begin.
const (
	elevatedFill = 0.25
	severeFill   = 0.75
)

// shedFill is, per Priority, the queue fill fraction at or above which new
// requests of that class are shed. Interactive's 1.0 means "only when the
// queue is full", which the queue-full check handles first.
var shedFill = [numPriorities]float64{1.0, severeFill, 0.5}

// Request is one prediction request.
type Request struct {
	// Service names the evaluation target (default Config.Service).
	Service string
	// Scope names the model the request evaluates; the server keeps
	// the time of each scope's last exact answer, which dates its Stale
	// answers. Callers multiplexing several models through one server
	// (e.g. per-request artifact dispatch) must set it to the model's
	// identity, or one model's record could vouch for another's.
	Scope string
	// Params are the actual parameters.
	Params []float64
	// Priority classes the request for shedding (zero = Interactive).
	Priority Priority
	// Timeout is the request's deadline budget measured on the server's
	// clock (0 = none beyond the context's own deadline). Prefer it over
	// a context deadline when the server runs on a FakeClock.
	Timeout time.Duration
}

// BatchRequest is one batched prediction request; the whole grid is
// admitted as a single queue unit and evaluated through the backend's
// batch kernel when available.
type BatchRequest struct {
	// Service names the evaluation target (default Config.Service).
	Service string
	// Scope names the model the grid evaluates (see Request.Scope).
	Scope string
	// ParamSets are the parameter points.
	ParamSets [][]float64
	// Priority classes the request (zero = Interactive; batch sweeps
	// typically want Batch).
	Priority Priority
	// Timeout is the whole batch's deadline budget on the server clock.
	Timeout time.Duration
}

// Stats is a point-in-time snapshot of the server's counters and gauges.
type Stats struct {
	// Offered counts every request presented to Serve/ServeBatch (batch
	// requests count once).
	Offered uint64
	// Admitted counts requests that passed admission control.
	Admitted uint64
	// Answer-kind counters over all served requests (batch requests
	// count per point).
	Exact, Stale, Unavailable uint64
	// Shed reasons.
	ShedQueueFull, ShedClass, ShedDeadline, SweptExpired, CanceledWaiting uint64
	// ShedDraining counts requests refused because the server is
	// draining for shutdown.
	ShedDraining uint64
	// HedgesLaunched and HedgeWins are always zero; retired. The server
	// no longer hedges, and the fields stay only for readers that still
	// name them.
	HedgesLaunched, HedgeWins uint64
	// Repaired counts last-exact times adopted via RepairLastExact
	// (read-repair from a peer's fresher answer).
	Repaired uint64
	// Limit is the AIMD limiter's current window; Inflight and
	// QueueDepth are the live gauges.
	Limit      float64
	Inflight   int
	QueueDepth int
	// EstimatedLatency is the admission controller's service-time
	// estimate.
	EstimatedLatency time.Duration
	// Saturation is the current level.
	Saturation Saturation
}

// Server is the admission-controlled prediction front end. Methods are
// safe for concurrent use by any number of goroutines.
type Server struct {
	cfg    Config
	clock  socruntime.Clock
	eval   Evaluator
	inline InlineEvaluator // eval's inline fast path, nil if it has none

	mu        sync.Mutex
	queue     *admissionQueue
	limiter   *aimdLimiter
	lat       *latencyDigest
	lastExact map[string]time.Time // scope → time of its last exact answer
	stats     Stats
	draining  bool
	drained   chan struct{} // closed once draining and quiescent
}

// lastExactCap bounds the scope → last-exact-time map. A new scope
// arriving at capacity clears it wholesale; a cleared scope answers
// Unavailable on a shed until its next exact answer.
const lastExactCap = 4096

// New builds a Server over eval. eval must not be nil.
func New(eval Evaluator, cfg Config) *Server {
	if eval == nil {
		panic("server: nil evaluator")
	}
	if cfg.Clock == nil {
		cfg.Clock = socruntime.RealClock{}
	}
	inline, _ := eval.(InlineEvaluator)
	return &Server{
		cfg:       cfg,
		clock:     cfg.Clock,
		eval:      eval,
		inline:    inline,
		queue:     newAdmissionQueue(cfg.QueueCapacity),
		limiter:   newLimiter(cfg.Limiter),
		lat:       newLatencyDigest(cfg.InitialEstimate),
		lastExact: make(map[string]time.Time),
	}
}

// Stats returns a snapshot of the server's counters and gauges.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Limit = s.limiter.limit
	st.Inflight = s.limiter.inflight
	st.QueueDepth = s.queue.depth
	st.EstimatedLatency = s.lat.estimate
	st.Saturation = s.saturationLocked()
	return st
}

// Saturation returns the current saturation level.
func (s *Server) Saturation() Saturation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saturationLocked()
}

func (s *Server) saturationLocked() Saturation {
	switch fill := s.queue.fill(); {
	case s.queue.full():
		return SatOverload
	case fill >= severeFill:
		return SatSevere
	case fill >= elevatedFill:
		return SatElevated
	default:
		return SatNormal
	}
}

// Serve answers one prediction request, always returning a tagged
// answer: Exact on a successful evaluation, and a degraded tag (Stale or
// Unavailable, each carrying the causing error) when the request was
// shed, expired, or the evaluation failed. It never returns the zero
// Answer.
func (s *Server) Serve(ctx context.Context, req Request) socruntime.Answer {
	if ctx == nil {
		ctx = context.Background()
	}
	service := req.Service
	if service == "" {
		service = s.cfg.Service
	}
	now := s.clock.Now()
	deadline := s.effectiveDeadline(ctx, now, req.Timeout)

	s.mu.Lock()
	s.stats.Offered++
	if !req.Priority.valid() {
		req.Priority = BestEffort
	}
	if cause := s.admitLocked(req.Priority, deadline, now); cause != nil {
		asOf := s.lastExact[req.Scope]
		s.mu.Unlock()
		return s.shed(ctx, service, req.Params, cause, now, asOf)
	}
	s.stats.Admitted++
	var w *waiter
	if s.queue.depth == 0 && s.limiter.tryAcquire() {
		// Fast path: empty queue and a free slot.
	} else {
		w = &waiter{pri: req.Priority, enq: now, deadline: deadline, ready: make(chan error, 1)}
		s.queue.push(w)
	}
	s.mu.Unlock()

	if w != nil {
		if cause := s.await(ctx, w); cause != nil {
			return s.shed(ctx, service, req.Params, cause, s.clock.Now(), s.lastExactAt(req.Scope))
		}
	}

	// We hold one in-flight slot. A point an Inline evaluator answers
	// ends long before a watcher could act, so it needs none.
	inline := !deadline.IsZero() && s.inline != nil && s.inline.Inline(ctx, service)
	evalCtx, cleanup, start, err := s.evalContext(ctx, deadline, inline)
	if err != nil {
		// Nothing was evaluated, so there is no outcome to publish.
		return s.shed(ctx, service, req.Params, err, start, s.releaseUnevaluated(req.Scope))
	}
	p, err := s.eval.PfailCtx(evalCtx, service, req.Params...)
	cleanup()
	end := s.clock.Now()

	s.mu.Lock()
	s.limiter.observe(end.Sub(start), err)
	s.limiter.release()
	s.dispatchLocked()
	var ans socruntime.Answer
	if err == nil {
		s.lat.observe(end.Sub(start))
		s.recordExactLocked(req.Scope, end)
		s.stats.Exact++
		ans = socruntime.Answer{Kind: socruntime.Exact, Pfail: p, AsOf: end}
	} else {
		ans = socruntime.Degrade(err, nil, end)
		s.countLocked(ans.Kind)
	}
	s.mu.Unlock()

	if s.cfg.OnOutcome != nil && !requestFault(err) {
		s.cfg.OnOutcome(Outcome{
			Service: service,
			Scope:   req.Scope,
			Success: err == nil,
			Latency: end.Sub(start),
			At:      end,
		})
	}
	return ans
}

// requestFault reports whether err is the request's own fault (a wrong
// parameter count or an unknown service name) rather than evidence about
// the evaluated service.
func requestFault(err error) bool {
	switch core.ErrorClass(err) {
	case "arity", "unknown-service":
		return true
	}
	return false
}

// ServeBatch answers one batched request: the grid is admitted as a
// single unit and holds a single concurrency slot (the batch kernel
// brings its own internal parallelism). The result always
// has len(ParamSets) entries; points the batch could not evaluate carry
// degraded tags, the rest are Exact.
func (s *Server) ServeBatch(ctx context.Context, req BatchRequest) []socruntime.Answer {
	if ctx == nil {
		ctx = context.Background()
	}
	service := req.Service
	if service == "" {
		service = s.cfg.Service
	}
	out := make([]socruntime.Answer, len(req.ParamSets))
	now := s.clock.Now()
	deadline := s.effectiveDeadline(ctx, now, req.Timeout)

	s.mu.Lock()
	s.stats.Offered++
	if !req.Priority.valid() {
		req.Priority = BestEffort
	}
	if cause := s.admitLocked(req.Priority, deadline, now); cause != nil {
		asOf := s.lastExact[req.Scope]
		s.mu.Unlock()
		s.shedBatch(ctx, out, service, req.ParamSets, cause, now, asOf)
		return out
	}
	s.stats.Admitted++
	var w *waiter
	if s.queue.depth == 0 && s.limiter.tryAcquire() {
	} else {
		w = &waiter{pri: req.Priority, enq: now, deadline: deadline, ready: make(chan error, 1)}
		s.queue.push(w)
	}
	s.mu.Unlock()

	if w != nil {
		if cause := s.await(ctx, w); cause != nil {
			s.shedBatch(ctx, out, service, req.ParamSets, cause, s.clock.Now(), s.lastExactAt(req.Scope))
			return out
		}
	}

	// A grid has no size bound, so a deadline always starts the watcher,
	// whether or not the evaluator reports Inline for one point.
	evalCtx, cleanup, start, err := s.evalContext(ctx, deadline, false)
	if err != nil {
		s.shedBatch(ctx, out, service, req.ParamSets, err, start, s.releaseUnevaluated(req.Scope))
		return out
	}
	ps, err := s.evalPoints(evalCtx, service, req.ParamSets)
	cleanup()
	end := s.clock.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(req.ParamSets); n > 0 {
		per := end.Sub(start) / time.Duration(n)
		s.limiter.observe(per, err)
		if err == nil {
			s.lat.observe(per)
		}
	}
	s.limiter.release()
	s.dispatchLocked()
	if err == nil && ps == nil {
		err = fmt.Errorf("server: batch evaluator returned no results")
	}
	exact := uint64(0)
	for i := range out {
		if i < len(ps) && !math.IsNaN(ps[i]) {
			out[i] = socruntime.Answer{Kind: socruntime.Exact, Pfail: ps[i], AsOf: end}
			exact++
			continue
		}
		cause := err
		if cause == nil {
			cause = fmt.Errorf("server: batch point %d not evaluated", i)
		}
		out[i] = socruntime.Degrade(cause, nil, end)
		s.countLocked(out[i].Kind)
	}
	if exact > 0 {
		s.stats.Exact += exact
		s.recordExactLocked(req.Scope, end)
	}
	return out
}

// effectiveDeadline combines the context deadline with the request's
// clock-relative timeout, preferring the earlier. Context deadlines are
// wall-clock times; under a FakeClock only Request.Timeout is
// meaningful, which is why both exist.
func (s *Server) effectiveDeadline(ctx context.Context, now time.Time, timeout time.Duration) time.Time {
	var dl time.Time
	if d, ok := ctx.Deadline(); ok {
		dl = d
	}
	if timeout > 0 {
		if t := now.Add(timeout); dl.IsZero() || t.Before(dl) {
			dl = t
		}
	}
	return dl
}

// admitLocked is the admission controller: it sheds when the queue is
// full, when the request's class is over its fill threshold, and when
// the remaining deadline cannot cover the service-time estimate plus
// the expected queue wait.
func (s *Server) admitLocked(pri Priority, deadline, now time.Time) error {
	if s.draining {
		s.stats.ShedDraining++
		return ErrDraining
	}
	if s.queue.full() {
		s.stats.ShedQueueFull++
		return ErrQueueFull
	}
	if fill := s.queue.fill(); fill >= shedFill[pri] {
		s.stats.ShedClass++
		return fmt.Errorf("%w (class %s, fill %.2f)", ErrClassShed, pri, fill)
	}
	if !deadline.IsZero() && deadline.Sub(now) < s.requiredBudgetLocked() {
		s.stats.ShedDeadline++
		return ErrDeadlineBudget
	}
	return nil
}

// requiredBudgetLocked is the deadline budget a request needs right now:
// one service time, plus one per full window of queued work ahead of it.
func (s *Server) requiredBudgetLocked() time.Duration {
	est := s.lat.estimate
	waves := 1 + s.queue.depth/s.limiter.limitInt()
	return est * time.Duration(waves)
}

// await parks the caller until dispatch grants it a slot or sheds it.
// A nil return means the caller now holds a slot; non-nil is the shed
// cause (swept, canceled, or expired while waiting).
func (s *Server) await(ctx context.Context, w *waiter) error {
	var timer <-chan time.Time
	if !w.deadline.IsZero() {
		timer = s.clock.After(w.deadline.Sub(w.enq))
	}
	select {
	case cause := <-w.ready:
		return cause
	case <-ctx.Done():
		return s.abandon(w, fmt.Errorf("%w: %w while queued", core.ErrCanceled, ctx.Err()))
	case <-timer:
		return s.abandon(w, ErrExpiredInQueue)
	}
}

// abandon withdraws w from the queue after a cancellation or timer fire.
// If dispatch got there first the grant (or shed) in w.ready wins: a
// granted slot is handed back, a shed reason is returned as-is.
func (s *Server) abandon(w *waiter, cause error) error {
	s.mu.Lock()
	if s.queue.remove(w) {
		if cause == ErrExpiredInQueue {
			s.stats.SweptExpired++
		} else {
			s.stats.CanceledWaiting++
		}
		s.mu.Unlock()
		return cause
	}
	s.mu.Unlock()
	// Dispatch already decided; its decision is in the channel.
	granted := <-w.ready
	if granted == nil {
		s.mu.Lock()
		s.limiter.release()
		s.dispatchLocked()
		s.mu.Unlock()
		return cause
	}
	return granted
}

// dispatchLocked sweeps expired waiters and grants slots while the
// window has room. Called whenever a slot frees or the window grows.
func (s *Server) dispatchLocked() {
	now := s.clock.Now()
	est := s.lat.estimate
	s.queue.sweep(
		func(w *waiter) bool { return w.deadline.Sub(now) < est },
		func(w *waiter) {
			s.stats.SweptExpired++
			w.granted = true
			w.ready <- ErrExpiredInQueue
		},
	)
	for s.queue.depth > 0 && s.limiter.tryAcquire() {
		w := s.queue.pop()
		w.granted = true
		w.ready <- nil
	}
	s.maybeQuiesceLocked()
}

// maybeQuiesceLocked completes an in-progress drain once the last slot
// frees and the queue is empty. dispatchLocked runs at every release
// point, so this is checked exactly when quiescence can change.
func (s *Server) maybeQuiesceLocked() {
	if s.draining && s.drained != nil && s.limiter.inflight == 0 && s.queue.depth == 0 {
		close(s.drained)
		s.drained = nil
	}
}

// Draining reports whether the server has stopped admitting requests.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the server down: admission closes immediately
// (new requests degrade with ErrDraining, which front ends surface as
// 503 + Retry-After), while queued and in-flight work runs to
// completion. Drain blocks until the server is quiescent, the timeout
// elapses on the server's clock (ErrDrainTimeout), or ctx is canceled;
// it returns the final stats snapshot either way, so callers can emit a
// last accounting line. Drain is idempotent — concurrent callers all
// wait for the same quiescence.
func (s *Server) Drain(ctx context.Context, timeout time.Duration) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.drained = make(chan struct{})
		s.maybeQuiesceLocked()
	}
	done := s.drained
	s.mu.Unlock()
	if done == nil { // already quiescent
		return s.Stats(), nil
	}
	var timer <-chan time.Time
	if timeout > 0 {
		timer = s.clock.After(timeout)
	}
	select {
	case <-done:
		return s.Stats(), nil
	case <-ctx.Done():
		return s.Stats(), fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	case <-timer:
		return s.Stats(), ErrDrainTimeout
	}
}

// RepairLastExact adopts an exact answer's time learned elsewhere
// (typically a peer replica's answer observed across a forward) as the
// scope's last exact time, but only when it is strictly later than the
// local record: read-repair never rolls a scope backward. It reports
// whether the time was adopted. A zero time is rejected.
func (s *Server) RepairLastExact(scope string, at time.Time) bool {
	if at.IsZero() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.recordExactLocked(scope, at) {
		return false
	}
	s.stats.Repaired++
	return true
}

// lastExactAt returns the scope's last exact time, zero when it has
// none.
func (s *Server) lastExactAt(scope string) time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastExact[scope]
}

// recordExactLocked moves the scope's last exact time forward to at,
// reporting whether it moved.
func (s *Server) recordExactLocked(scope string, at time.Time) bool {
	cur, ok := s.lastExact[scope]
	if ok && !at.After(cur) {
		return false
	}
	if !ok && len(s.lastExact) >= lastExactCap {
		clear(s.lastExact)
	}
	s.lastExact[scope] = at
	return true
}

// countLocked tallies one answer of kind k.
func (s *Server) countLocked(k socruntime.AnswerKind) {
	switch k {
	case socruntime.Exact:
		s.stats.Exact++
	case socruntime.Stale:
		s.stats.Stale++
	default:
		s.stats.Unavailable++
	}
}

// staleFrom reports whether a request the server refused to evaluate
// may be answered Stale: its scope has an exact answer on record (asOf)
// and the evaluator serves the request inline, so evaluating the
// scope's closed form costs no more than refusing it.
func (s *Server) staleFrom(ctx context.Context, service string, asOf time.Time) bool {
	return !asOf.IsZero() && s.inline != nil && s.inline.Inline(ctx, service)
}

// shed answers one request the server refused to evaluate: cause is
// the server's own (an admission shed, a drain, an expiry or
// cancellation while queued, or a deadline that passed before
// evaluation) and
// asOf is the scope's last exact time, zero when it has none. Where
// staleFrom allows, the answer is Stale at the requested point: the
// evaluation runs outside s.mu, under a context the request's end
// cannot cancel, and takes no limiter slot, latency sample or outcome,
// because it is the degraded answer, not an observation of the model.
// Otherwise, or when that evaluation fails, the answer is
// runtime.Degrade with no last-good value.
func (s *Server) shed(ctx context.Context, service string, params []float64, cause error, now, asOf time.Time) socruntime.Answer {
	var ans socruntime.Answer
	if s.staleFrom(ctx, service, asOf) {
		if p, err := s.eval.PfailCtx(detached(ctx), service, params...); err == nil {
			ans = staleAnswer(p, cause, now, asOf)
		}
	}
	if ans.Kind == 0 {
		ans = socruntime.Degrade(cause, nil, now)
	}
	s.mu.Lock()
	s.countLocked(ans.Kind)
	s.mu.Unlock()
	return ans
}

// shedBatch is shed for every point of a refused grid; a Stale grid is
// evaluated through the batch kernel when the evaluator has one.
func (s *Server) shedBatch(ctx context.Context, out []socruntime.Answer, service string, sets [][]float64, cause error, now, asOf time.Time) {
	var ps []float64
	if s.staleFrom(ctx, service, asOf) {
		// A point that failed is NaN and degrades below with the shed
		// cause, which is what the answer reports; the batch error adds
		// nothing to it.
		ps, _ = s.evalPoints(detached(ctx), service, sets)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range out {
		if i < len(ps) && !math.IsNaN(ps[i]) {
			out[i] = staleAnswer(ps[i], cause, now, asOf)
		} else {
			out[i] = socruntime.Degrade(cause, nil, now)
		}
		s.countLocked(out[i].Kind)
	}
}

// staleAnswer is the Stale answer p for a request shed at now by cause,
// dated by its scope's last exact answer at asOf.
func staleAnswer(p float64, cause error, now, asOf time.Time) socruntime.Answer {
	return socruntime.Answer{Kind: socruntime.Stale, Pfail: p, AsOf: asOf, Age: now.Sub(asOf), Err: cause}
}

// detached is ctx without its cancellation and deadline, for a Stale
// evaluation whose request was shed because ctx ended.
func detached(ctx context.Context) context.Context {
	if ctx.Done() == nil {
		return ctx
	}
	return context.WithoutCancel(ctx)
}

// errDeadlinePassed answers a request whose deadline passed before its
// evaluation could start: the ErrCanceled class that a deadline
// watcher's cancellation reports.
var errDeadlinePassed = fmt.Errorf("%w: %w", core.ErrCanceled, context.DeadlineExceeded)

// releaseUnevaluated returns the slot of a request whose deadline passed
// before its evaluation could start, and returns its scope's last exact
// time for the shed answer. The limiter counts it as it counts a
// deadline that cancels a running evaluation: a capacity signal.
func (s *Server) releaseUnevaluated(scope string) (asOf time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limiter.observe(0, errDeadlinePassed)
	s.limiter.release()
	s.dispatchLocked()
	return s.lastExact[scope]
}

// noCleanup is evalContext's cleanup when it started no watcher.
func noCleanup() {}

// evalContext opens an admitted request's evaluation, which runs on the
// caller's goroutine. It returns the context to evaluate under, the
// cleanup to call once the evaluation returns, and the time the
// evaluation starts. A deadline that has already passed fails with
// errDeadlinePassed, and the caller must not evaluate. With no deadline,
// or with inline set (one point of an evaluator that reports Inline), the
// context is ctx itself; otherwise a watcher cancels it at the deadline.
func (s *Server) evalContext(ctx context.Context, deadline time.Time, inline bool) (context.Context, func(), time.Time, error) {
	start := s.clock.Now()
	if deadline.IsZero() {
		return ctx, noCleanup, start, nil
	}
	d := deadline.Sub(start)
	switch {
	case d <= 0:
		return ctx, noCleanup, start, errDeadlinePassed
	case inline:
		return ctx, noCleanup, start, nil
	}
	evalCtx, cleanup := s.deadlineCtx(ctx, d)
	return evalCtx, cleanup, start, nil
}

// evalPoints runs the grid through the backend's batch kernel when it
// has one, falling back to a per-point loop with cancellation checks at
// every point boundary. Points that were not evaluated are NaN.
func (s *Server) evalPoints(ctx context.Context, service string, sets [][]float64) ([]float64, error) {
	if be, ok := s.eval.(BatchEvaluator); ok {
		return be.PfailBatchCtx(ctx, service, sets)
	}
	out := make([]float64, len(sets))
	for i := range out {
		out[i] = math.NaN()
	}
	var firstErr error
	for i, params := range sets {
		if err := ctx.Err(); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("server: batch point %d: %w: %w", i, core.ErrCanceled, err)
			}
			break
		}
		p, err := s.eval.PfailCtx(ctx, service, params...)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("server: batch point %d: %w", i, err)
			}
			continue
		}
		out[i] = p
	}
	return out, firstErr
}

// deadlineCtx derives a context that a watcher on the server's clock
// cancels d from now (context.WithDeadline compares against the wall
// clock, which a FakeClock does not move). cleanup must be called once
// the evaluation returns; it stops the watcher.
func (s *Server) deadlineCtx(ctx context.Context, d time.Duration) (evalCtx context.Context, cleanup func()) {
	evalCtx, cancel := context.WithCancel(ctx)
	stop := make(chan struct{})
	go func() {
		select {
		case <-s.clock.After(d):
			cancel()
		case <-stop:
		}
	}()
	return evalCtx, func() {
		close(stop)
		cancel()
	}
}
