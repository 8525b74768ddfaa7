package runtime

import (
	"context"
	"fmt"
	"math"
	"time"

	"socrel/internal/assembly"
	"socrel/internal/core"
	"socrel/internal/model"
	"socrel/internal/monitor"
	"socrel/internal/registry"
)

// SupervisorConfig parameterizes a Supervisor.
type SupervisorConfig struct {
	// Monitor is the template for the per-provider SPRT monitors;
	// Predicted and Degraded are set per provider when it is watched.
	Monitor monitor.Config
	// Clock stamps last-known-good values and staleness, and times
	// quarantine windows (default RealClock).
	Clock Clock
	// WrapResolver, when set, decorates the assembly before the evaluator
	// sees it. It is the tests' fault-injection seam (chaos_test.go wraps
	// the assembly in internal/faultinject). Selection scoring always
	// runs against the undecorated assembly.
	WrapResolver func(model.Resolver) model.Resolver
	// OnRebind, when set, is called after every successful automatic
	// rebind.
	OnRebind func(RebindEvent)
	// OnRepredict, when set, is called after every completed
	// re-prediction (see Repredict), outside the supervisor's lock.
	OnRepredict func(RepredictEvent)
}

// RebindEvent records one automatic rebind.
type RebindEvent struct {
	// From and To are the previous and new winning candidates.
	From, To registry.Candidate
	// Reason is why the previous binding was abandoned.
	Reason error
	// Predicted is the new binding's predicted reliability.
	Predicted float64
	// At is when the rebind happened.
	At time.Time
}

// Supervisor makes one open role of an assembly self-healing: it performs
// the initial reliability-driven binding among the candidates, streams
// observed invocation outcomes into the health layer, rebinds
// automatically when the current binding's SPRT decides Violating and
// quarantines it, and serves tagged degraded answers when an exact
// prediction is unavailable. Methods are safe for concurrent use;
// evaluations are serialized internally.
type Supervisor struct {
	cfg     SupervisorConfig
	clock   Clock
	tracker *HealthTracker

	asm        *assembly.Assembly
	caller     string
	role       string
	candidates []registry.Candidate
	opts       core.Options
	target     string
	params     []float64

	mu        chan struct{} // semaphore: also serializes the interpreted evaluator
	current   registry.Candidate
	predicted float64
	ev        *core.Evaluator
	// livePfail is the exact Pfail of the model in force at (target,
	// params), as last computed by Repredict or an exact Pfail answer;
	// NaN once the model has changed since. Repredict reads it as the
	// pre-swap prediction instead of evaluating the old model again.
	livePfail  float64
	last       *LastGood
	rebinds    []RebindEvent
	repredicts []RepredictEvent
}

// historyCap bounds the rebind and re-prediction histories: a long-lived
// supervisor keeps only its most recent events (the hooks see them all).
const historyCap = 64

// appendCapped appends ev to h, dropping the oldest event once h holds
// historyCap.
func appendCapped[T any](h []T, ev T) []T {
	if len(h) == historyCap {
		h = append(h[:0], h[1:]...)
	}
	return append(h, ev)
}

// NewSupervisor binds the (caller, role) requirement to the most reliable
// healthy candidate (exactly like registry.SelectBinding), starts SPRT
// monitoring of the winner against its predicted reliability, and returns
// the supervisor. The assembly is taken over by the supervisor: it
// rebinds (caller, role) in place on failover.
func NewSupervisor(ctx context.Context, cfg SupervisorConfig, asm *assembly.Assembly, caller, role string, candidates []registry.Candidate, opts core.Options, target string, params ...float64) (*Supervisor, error) {
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	s := &Supervisor{
		cfg:        cfg,
		clock:      cfg.Clock,
		tracker:    NewHealthTracker(cfg.Monitor, cfg.Clock),
		asm:        asm,
		caller:     caller,
		role:       role,
		candidates: append([]registry.Candidate(nil), candidates...),
		opts:       opts,
		target:     target,
		params:     append([]float64(nil), params...),
		mu:         make(chan struct{}, 1),
		livePfail:  math.NaN(),
	}
	s.mu <- struct{}{}
	s.lock()
	defer s.unlock()
	if err := s.rebindLocked(ctx, nil); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Supervisor) lock()   { <-s.mu }
func (s *Supervisor) unlock() { s.mu <- struct{}{} }

// rebindLocked selects the best healthy candidate, rebinds the assembly,
// and rebuilds the evaluator (the cached live prediction no longer
// applies). reason == nil means the initial binding.
func (s *Supervisor) rebindLocked(ctx context.Context, reason error) error {
	sel, err := SelectHealthyBinding(ctx, s.tracker, s.asm, s.caller, s.role, s.candidates, s.opts, s.target, s.params...)
	if err != nil {
		return err
	}
	old := s.current
	s.asm.AddBinding(s.caller, s.role, sel.Candidate.Provider, sel.Candidate.Connector)
	s.ev = core.New(s.wrapped(), s.opts)
	s.livePfail = math.NaN()
	s.current = sel.Candidate
	s.predicted = sel.Reliability
	if err := s.tracker.Watch(sel.Candidate.Provider, sel.Reliability); err != nil {
		return err
	}
	if reason != nil {
		ev := RebindEvent{From: old, To: sel.Candidate, Reason: reason, Predicted: sel.Reliability, At: s.clock.Now()}
		s.rebinds = appendCapped(s.rebinds, ev)
		if s.cfg.OnRebind != nil {
			s.cfg.OnRebind(ev)
		}
	}
	return nil
}

func (s *Supervisor) wrapped() model.Resolver {
	if s.cfg.WrapResolver != nil {
		return s.cfg.WrapResolver(s.asm)
	}
	return s.asm
}

// Current returns the currently bound candidate.
func (s *Supervisor) Current() registry.Candidate {
	s.lock()
	defer s.unlock()
	return s.current
}

// Predicted returns the predicted reliability of the current binding.
func (s *Supervisor) Predicted() float64 {
	s.lock()
	defer s.unlock()
	return s.predicted
}

// Rebinds returns the most recent automatic rebinds (at most 64), oldest
// first; OnRebind sees every one.
func (s *Supervisor) Rebinds() []RebindEvent {
	s.lock()
	defer s.unlock()
	return append([]RebindEvent(nil), s.rebinds...)
}

// Tracker exposes the health layer for inspection and checkpointing.
func (s *Supervisor) Tracker() *HealthTracker { return s.tracker }

// Checkpoint snapshots all SPRT monitors (see HealthTracker.Checkpoint);
// feed the result to RestoreCheckpoint after a restart so accumulated
// evidence survives.
func (s *Supervisor) Checkpoint() map[string]monitor.Snapshot {
	return s.tracker.Checkpoint()
}

// RestoreCheckpoint restores SPRT monitors from a Checkpoint.
func (s *Supervisor) RestoreCheckpoint(snap map[string]monitor.Snapshot) error {
	return s.tracker.RestoreCheckpoint(snap)
}

// ReportOutcome streams one observed invocation outcome of the currently
// bound provider. If the accumulated evidence makes the provider's SPRT
// decide Violating, the provider is quarantined and the supervisor
// immediately rebinds to the best healthy alternative. It returns the
// SPRT verdict after the outcome and whether a rebind happened (rebindErr
// reports a rebind that was needed but found no healthy candidate — the
// binding then stays and answers degrade).
func (s *Supervisor) ReportOutcome(ctx context.Context, success bool) (v monitor.Verdict, rebound bool, rebindErr error) {
	s.lock()
	defer s.unlock()
	prov := s.current.Provider
	v = s.tracker.Observe(prov, success)
	if why := s.tracker.quarantine(prov); why != nil {
		if err := s.rebindLocked(ctx, why); err != nil {
			return v, false, err
		}
		return v, true, nil
	}
	return v, false, nil
}

// Pfail returns the current prediction for the supervised target
// invocation, degrading instead of failing: a quarantined binding (with
// no healthy alternative), a solver that did not converge, or an expired
// deadline each produce a tagged non-exact answer. A failed evaluation
// is not held against the provider: only invocation outcomes are. Exact
// answers refresh the last-known-good value.
func (s *Supervisor) Pfail(ctx context.Context) Answer {
	if ctx == nil {
		ctx = context.Background()
	}
	s.lock()
	defer s.unlock()
	if why := s.tracker.quarantine(s.current.Provider); why != nil {
		// The binding is quarantined and no rebind target was available
		// when it tripped; try once more now (a sibling's window may have
		// ended since), then degrade.
		if err := s.rebindLocked(ctx, why); err != nil {
			return s.degradeLocked(fmt.Errorf("%w: %q: %w", ErrQuarantined, s.current.Provider, why))
		}
	}
	p, err := s.ev.PfailCtx(ctx, s.target, s.params...)
	if err != nil {
		return s.degradeLocked(err)
	}
	s.livePfail = p
	s.last = &LastGood{Pfail: p, Provider: s.current.Provider, At: s.clock.Now()}
	return Answer{Kind: Exact, Pfail: p, Provider: s.current.Provider, AsOf: s.last.At}
}

func (s *Supervisor) degradeLocked(cause error) Answer {
	return Degrade(cause, s.last, s.clock.Now())
}
