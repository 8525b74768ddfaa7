package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"socrel/internal/assembly"
	"socrel/internal/core"
	"socrel/internal/monitor"
	"socrel/internal/registry"
)

// Errors returned by the health layer.
var (
	// ErrProviderDegraded is the trip reason when a provider's SPRT
	// monitor decides it is running below its predicted reliability.
	ErrProviderDegraded = errors.New("runtime: provider violating predicted reliability")
	// ErrAllQuarantined is returned by SelectHealthyBinding when every
	// candidate provider is quarantined.
	ErrAllQuarantined = errors.New("runtime: all candidate providers quarantined")
	// ErrDrift is the trip reason when the estimation layer confirms a
	// provider's failure parameters drifted away from the bound model.
	ErrDrift = errors.New("runtime: failure-parameter drift")
)

// HealthConfig parameterizes a HealthTracker.
type HealthConfig struct {
	// Breaker configures every per-provider circuit breaker.
	Breaker BreakerConfig
	// Monitor is the template for per-provider SPRT monitors; Predicted
	// and Degraded are overridden per provider when it is watched.
	Monitor monitor.Config
	// DegradedRatio sets each monitor's H1 as ratio*predicted (default:
	// the monitor package's 0.9*predicted).
	DegradedRatio float64
	// OnTrip, when set, is called whenever a provider's breaker opens —
	// from an SPRT violation or from repeated evaluation errors. It runs
	// with the tracker's lock held; it must not call back into the
	// tracker.
	OnTrip func(provider string, reason error)
}

// providerHealth is one provider's breaker plus SPRT monitor.
type providerHealth struct {
	breaker *Breaker
	mon     *monitor.Monitor
}

// HealthTracker keeps per-provider health: a circuit breaker fed by typed
// evaluation errors and by an SPRT monitor over streamed invocation
// outcomes. It is safe for concurrent use.
type HealthTracker struct {
	cfg HealthConfig

	mu        sync.Mutex
	providers map[string]*providerHealth
}

// NewHealthTracker returns an empty tracker.
func NewHealthTracker(cfg HealthConfig) *HealthTracker {
	cfg.Breaker = cfg.Breaker.withDefaults()
	return &HealthTracker{cfg: cfg, providers: make(map[string]*providerHealth)}
}

// Watch starts (or re-parameterizes) health tracking for a provider whose
// predicted reliability is predicted. A provider already watched keeps its
// breaker and its accumulated monitor evidence; only a change of the
// predicted reliability re-arms the SPRT (preserving cumulative and
// windowed statistics via Snapshot/Restore).
func (h *HealthTracker) Watch(provider string, predicted float64) error {
	cfg := h.cfg.Monitor
	// A prediction of exactly 0 or 1 is outside the SPRT's open interval;
	// nudge it inside so perfect (or hopeless) predictions stay watchable.
	const eps = 1e-9
	if predicted >= 1 {
		predicted = 1 - eps
	}
	if predicted <= 0 {
		predicted = eps
	}
	cfg.Predicted = predicted
	if h.cfg.DegradedRatio > 0 {
		cfg.Degraded = h.cfg.DegradedRatio * predicted
	} else {
		cfg.Degraded = 0
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	ph, ok := h.providers[provider]
	if !ok {
		mon, err := monitor.New(cfg)
		if err != nil {
			return fmt.Errorf("runtime: watch %q: %w", provider, err)
		}
		h.providers[provider] = &providerHealth{
			breaker: NewBreaker(h.cfg.Breaker),
			mon:     mon,
		}
		return nil
	}
	old := ph.mon.Snapshot()
	if old.Config.Predicted == cfg.Predicted {
		return nil
	}
	old.Config = cfg
	old.LLR = 0
	old.Decided = monitor.Undecided
	mon, err := monitor.Restore(old)
	if err != nil {
		return fmt.Errorf("runtime: re-watch %q: %w", provider, err)
	}
	ph.mon = mon
	return nil
}

// Observe streams one invocation outcome for a provider. The outcome
// updates the provider's SPRT monitor; a Violating verdict trips the
// breaker (once per armed test). Unwatched providers are ignored and
// report Undecided.
func (h *HealthTracker) Observe(provider string, success bool) monitor.Verdict {
	h.mu.Lock()
	defer h.mu.Unlock()
	ph, ok := h.providers[provider]
	if !ok {
		return monitor.Undecided
	}
	armed := ph.mon.SPRT() == monitor.Undecided
	ph.mon.Record(success)
	v := ph.mon.SPRT()
	switch {
	case armed && v == monitor.Violating:
		reason := fmt.Errorf("%w: SPRT violating after %d outcomes (windowed reliability %.4g)",
			ErrProviderDegraded, ph.mon.Total(), ph.mon.Windowed())
		ph.breaker.Trip(reason)
		if h.cfg.OnTrip != nil {
			h.cfg.OnTrip(provider, reason)
		}
	case v == monitor.Meeting:
		// A Meeting decision ends one sequential test; re-arm immediately
		// (repeated SPRT) so a later degradation is still detected. The
		// decided-Violating state is sticky instead: it is cleared by the
		// breaker lifecycle, not by more data.
		ph.mon.ResetSPRT()
	}
	return v
}

// ObserveEvalError feeds one failed evaluation against a provider into its
// breaker. Cancellation is not held against the provider (the caller gave
// up, the provider did not fail); every other error counts toward the
// consecutive-failure threshold.
func (h *HealthTracker) ObserveEvalError(provider string, err error) {
	if err == nil || errors.Is(err, core.ErrCanceled) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	ph, ok := h.providers[provider]
	if !ok {
		return
	}
	before := ph.breaker.State()
	ph.breaker.RecordFailure(err)
	if h.cfg.OnTrip != nil && before != Open && ph.breaker.State() == Open {
		why, _ := ph.breaker.LastTrip()
		h.cfg.OnTrip(provider, why)
	}
}

// ObserveEvalSuccess feeds one successful evaluation into the provider's
// breaker (resetting the consecutive-failure count, or consuming one
// half-open probe).
func (h *HealthTracker) ObserveEvalSuccess(provider string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ph, ok := h.providers[provider]; ok {
		ph.breaker.RecordSuccess()
	}
}

// Quarantined reports whether the provider's breaker currently refuses
// calls. Unwatched providers are never quarantined.
func (h *HealthTracker) Quarantined(provider string) bool {
	h.mu.Lock()
	ph, ok := h.providers[provider]
	h.mu.Unlock()
	return ok && !ph.breaker.Allow()
}

// BreakerState returns the provider's breaker state (Closed for unwatched
// providers).
func (h *HealthTracker) BreakerState(provider string) BreakerState {
	h.mu.Lock()
	ph, ok := h.providers[provider]
	h.mu.Unlock()
	if !ok {
		return Closed
	}
	return ph.breaker.State()
}

// Breaker returns the provider's breaker for direct inspection, or nil
// for unwatched providers.
func (h *HealthTracker) Breaker(provider string) *Breaker {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ph, ok := h.providers[provider]; ok {
		return ph.breaker
	}
	return nil
}

// Verdict returns the provider's current SPRT verdict (Undecided for
// unwatched providers).
func (h *HealthTracker) Verdict(provider string) monitor.Verdict {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ph, ok := h.providers[provider]; ok {
		return ph.mon.SPRT()
	}
	return monitor.Undecided
}

// Healthy filters candidates whose provider is not quarantined.
func (h *HealthTracker) Healthy(candidates []registry.Candidate) []registry.Candidate {
	out := make([]registry.Candidate, 0, len(candidates))
	for _, c := range candidates {
		if !h.Quarantined(c.Provider) {
			out = append(out, c)
		}
	}
	return out
}

// Checkpoint snapshots every watched provider's monitor, keyed by
// provider name, so SPRT evidence survives rebinds and process restarts.
func (h *HealthTracker) Checkpoint() map[string]monitor.Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]monitor.Snapshot, len(h.providers))
	for name, ph := range h.providers {
		out[name] = ph.mon.Snapshot()
	}
	return out
}

// RestoreCheckpoint restores monitors from a Checkpoint, creating breaker
// state afresh (breakers protect the running process; monitors carry the
// statistical evidence worth persisting).
func (h *HealthTracker) RestoreCheckpoint(snap map[string]monitor.Snapshot) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	for name, s := range snap {
		mon, err := monitor.Restore(s)
		if err != nil {
			return fmt.Errorf("runtime: restore %q: %w", name, err)
		}
		if ph, ok := h.providers[name]; ok {
			ph.mon = mon
		} else {
			h.providers[name] = &providerHealth{breaker: NewBreaker(h.cfg.Breaker), mon: mon}
		}
	}
	return nil
}

// TripDrift opens a watched provider's breaker because the estimation
// layer confirmed sustained failure-parameter drift — the same
// quarantine path hard failures take, with a reason wrapping ErrDrift.
// It reports whether the provider was watched (unwatched providers are
// ignored). HealthTracker implements estimate.DriftTripper with it.
func (h *HealthTracker) TripDrift(provider string, reason error) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	ph, ok := h.providers[provider]
	if !ok {
		return false
	}
	why := ErrDrift
	if reason != nil {
		why = fmt.Errorf("%w: %w", ErrDrift, reason)
	}
	ph.breaker.Trip(why)
	if h.cfg.OnTrip != nil {
		h.cfg.OnTrip(provider, why)
	}
	return true
}

// Recover force-closes a provider's breaker and re-arms its SPRT. The
// re-prediction path uses it: evidence accumulated against the old
// prediction — including a quarantine it caused — no longer applies once
// the model is rebound to the observed behavior. It reports whether the
// provider was watched.
func (h *HealthTracker) Recover(provider string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	ph, ok := h.providers[provider]
	if !ok {
		return false
	}
	ph.breaker.Reset()
	ph.mon.ResetSPRT()
	return true
}

// SelectHealthyBinding is registry.SelectBindingCtx restricted to healthy
// candidates: providers whose breaker is open are excluded before scoring.
// With every candidate quarantined it fails fast with ErrAllQuarantined
// (wrapping ErrQuarantined) instead of scoring providers known to be bad.
func SelectHealthyBinding(ctx context.Context, tracker *HealthTracker, asm *assembly.Assembly, caller, role string, candidates []registry.Candidate, opts core.Options, target string, params ...float64) (registry.Selection, error) {
	healthy := tracker.Healthy(candidates)
	if len(healthy) == 0 {
		if len(candidates) == 0 {
			return registry.Selection{}, registry.ErrNoCandidates
		}
		return registry.Selection{}, fmt.Errorf("%w: %w: %d candidates for %s/%s", ErrAllQuarantined, ErrQuarantined, len(candidates), caller, role)
	}
	return registry.SelectBindingCtx(ctx, asm, caller, role, healthy, opts, target, params...)
}
