package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"socrel/internal/assembly"
	"socrel/internal/core"
	"socrel/internal/monitor"
	"socrel/internal/registry"
)

// Errors returned by the health layer.
var (
	// ErrProviderDegraded is the quarantine reason when a provider's SPRT
	// monitor decides it is running below its predicted reliability.
	ErrProviderDegraded = errors.New("runtime: provider violating predicted reliability")
	// ErrQuarantined marks operations refused because a provider is
	// quarantined: its SPRT decided Violating less than QuarantineWindow
	// ago.
	ErrQuarantined = errors.New("runtime: provider quarantined")
	// ErrAllQuarantined is returned by SelectHealthyBinding when every
	// candidate provider is quarantined.
	ErrAllQuarantined = errors.New("runtime: all candidate providers quarantined")
)

// QuarantineWindow is how long a provider whose SPRT decided Violating
// is kept out of selection. When the window ends, the provider's SPRT is
// re-armed (its cumulative and windowed counts are kept) and it can be
// selected again, to be judged afresh on its next invocation outcomes.
const QuarantineWindow = 30 * time.Second

// providerHealth is one provider's SPRT monitor and its quarantine:
// why is the reason of the quarantine that ends at until, nil when the
// provider is not quarantined.
type providerHealth struct {
	mon   *monitor.Monitor
	why   error
	until time.Time
}

// HealthTracker keeps per-provider health: an SPRT monitor over streamed
// invocation outcomes, and the quarantine its Violating verdict starts.
// It is safe for concurrent use.
type HealthTracker struct {
	mon   monitor.Config
	clock Clock

	mu        sync.Mutex
	providers map[string]*providerHealth
}

// NewHealthTracker returns an empty tracker. mon is the template for the
// per-provider SPRT monitors (Predicted and Degraded are set per provider
// when it is watched); clock times the quarantine windows (nil means
// RealClock).
func NewHealthTracker(mon monitor.Config, clock Clock) *HealthTracker {
	if clock == nil {
		clock = RealClock{}
	}
	return &HealthTracker{mon: mon, clock: clock, providers: make(map[string]*providerHealth)}
}

// Watch starts (or re-parameterizes) health tracking for a provider whose
// predicted reliability is predicted. A provider already watched keeps its
// quarantine and its accumulated monitor evidence; only a change of the
// predicted reliability re-arms the SPRT (preserving cumulative and
// windowed statistics via Snapshot/Restore).
func (h *HealthTracker) Watch(provider string, predicted float64) error {
	cfg := h.mon
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
	cfg.Degraded = 0 // the monitor's default, 0.9*predicted

	h.mu.Lock()
	defer h.mu.Unlock()
	ph, ok := h.providers[provider]
	if !ok {
		mon, err := monitor.New(cfg)
		if err != nil {
			return fmt.Errorf("runtime: watch %q: %w", provider, err)
		}
		h.providers[provider] = &providerHealth{mon: mon}
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

// settleLocked applies the quarantine rule at the tracker's current time
// and returns the quarantine reason, or nil when the provider may be
// selected. Inside its window a provider stays quarantined. Past it, a
// Violating SPRT (decided before the window ended, or restored from a
// checkpoint) is re-armed with its counts kept, so a provider that comes
// back is judged afresh on invocation outcomes. Callers hold h.mu.
func (h *HealthTracker) settleLocked(ph *providerHealth) error {
	if ph.why != nil {
		if h.clock.Now().Before(ph.until) {
			return ph.why
		}
		ph.why = nil
	}
	if ph.mon.SPRT() == monitor.Violating {
		ph.mon.ResetSPRT()
	}
	return nil
}

// Observe streams one invocation outcome for a provider. The outcome
// updates the provider's SPRT monitor; a Violating verdict of an armed
// test quarantines the provider for QuarantineWindow. A Meeting verdict
// re-arms the test at once. Unwatched providers are ignored and report
// Undecided.
func (h *HealthTracker) Observe(provider string, success bool) monitor.Verdict {
	h.mu.Lock()
	defer h.mu.Unlock()
	ph, ok := h.providers[provider]
	if !ok {
		return monitor.Undecided
	}
	h.settleLocked(ph)
	armed := ph.mon.SPRT() == monitor.Undecided
	ph.mon.Record(success)
	v := ph.mon.SPRT()
	switch {
	case armed && v == monitor.Violating:
		ph.why = fmt.Errorf("%w: SPRT violating after %d outcomes (windowed reliability %.4g)",
			ErrProviderDegraded, ph.mon.Total(), ph.mon.Windowed())
		ph.until = h.clock.Now().Add(QuarantineWindow)
	case v == monitor.Meeting:
		// A Meeting decision ends one sequential test; re-arm immediately
		// (repeated SPRT) so a later degradation is still detected. A
		// Violating decision stays until its quarantine window ends.
		ph.mon.ResetSPRT()
	}
	return v
}

// quarantine returns why the provider is quarantined, or nil when it may
// be selected (unwatched providers are never quarantined).
func (h *HealthTracker) quarantine(provider string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ph, ok := h.providers[provider]; ok {
		return h.settleLocked(ph)
	}
	return nil
}

// Quarantined reports whether the provider is inside a quarantine
// window. Unwatched providers are never quarantined.
func (h *HealthTracker) Quarantined(provider string) bool {
	return h.quarantine(provider) != nil
}

// Verdict returns the provider's SPRT verdict as last decided (Undecided
// for unwatched providers). A Violating verdict is re-armed once its
// quarantine window has ended and the tracker next consults the provider
// (Observe, Quarantined, selection).
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

// RestoreCheckpoint restores monitors from a Checkpoint. Quarantines are
// not part of it: they protect the running process, while monitors carry
// the statistical evidence worth persisting. A restored Violating SPRT is
// therefore re-armed the first time the tracker consults its provider.
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
			h.providers[name] = &providerHealth{mon: mon}
		}
	}
	return nil
}

// Recover ends a provider's quarantine and re-arms its SPRT. The
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
	ph.why = nil
	ph.mon.ResetSPRT()
	return true
}

// SelectHealthyBinding is registry.SelectBindingCtx restricted to healthy
// candidates: quarantined providers are excluded before scoring. With
// every candidate quarantined it fails fast with ErrAllQuarantined
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
