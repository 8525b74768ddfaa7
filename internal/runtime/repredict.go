package runtime

// Repredict is the Supervisor's estimation seam: it feeds what the
// estimation layer learned back into the live model.

import (
	"context"
	"fmt"
	"math"
	"time"

	"socrel/internal/core"
	"socrel/internal/model"
)

// RepredictEvent records one re-prediction: a learned failure-law
// parameter re-entering the live model.
type RepredictEvent struct {
	// Provider is the service whose attribute was rebound and Attr the
	// attribute name (e.g. "lambda", "beta").
	Provider string
	Attr     string
	// OldValue and NewValue are the attribute before and after.
	OldValue, NewValue float64
	// OldPfail and NewPfail are the supervised target's predicted
	// failure probability before and after (OldPfail is NaN when no
	// pre-swap prediction was computable).
	OldPfail, NewPfail float64
	// At is when the re-prediction completed.
	At time.Time
}

// Repredict rebinds one attribute of a (simple) service to a learned
// value and recomputes the prediction through the updated model: the
// service is replaced by a WithAttr copy, the evaluator rebuilt, and the
// supervised target re-evaluated. Only the new model is evaluated: the
// pre-swap prediction is the one the supervisor already holds for the
// live model, unless that model changed since it was computed. On
// success the supervisor's predicted reliability, last-known-good value,
// and the provider's health state are refreshed (quarantine ended, SPRT
// re-armed against the new prediction — the old evidence judged the old
// model), and SupervisorConfig.OnRepredict fires outside the lock. On
// evaluation failure the old service is restored and the model is
// unchanged.
// *Supervisor implements estimate.Repredictor with this method.
func (s *Supervisor) Repredict(ctx context.Context, provider, attr string, value float64) (oldPfail, newPfail float64, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ev, err := s.repredictLocked(ctx, provider, attr, value)
	if err != nil {
		return 0, 0, err
	}
	if s.cfg.OnRepredict != nil {
		s.cfg.OnRepredict(ev)
	}
	return ev.OldPfail, ev.NewPfail, nil
}

func (s *Supervisor) repredictLocked(ctx context.Context, provider, attr string, value float64) (RepredictEvent, error) {
	s.lock()
	defer s.unlock()

	svc, err := s.asm.ServiceByName(provider)
	if err != nil {
		return RepredictEvent{}, err
	}
	simple, ok := svc.(*model.Simple)
	if !ok {
		return RepredictEvent{}, fmt.Errorf("runtime: repredict %q: %w: not a simple service", provider, model.ErrInvalidService)
	}
	updated, err := simple.WithAttr(attr, value)
	if err != nil {
		return RepredictEvent{}, fmt.Errorf("runtime: repredict %q: %w", provider, err)
	}
	oldValue := simple.Attributes()[attr]

	// Pre-swap prediction, for the published old/new pair: the live
	// model's cached prediction when it has one (the previous Repredict
	// or exact Pfail computed it), otherwise a fresh evaluation; fall back
	// to the last-known-good value when the current model cannot evaluate
	// (e.g. the drifted provider is quarantined with no alternative).
	oldPfail := s.livePfail
	if math.IsNaN(oldPfail) {
		if p, perr := s.ev.PfailCtx(ctx, s.target, s.params...); perr == nil {
			oldPfail = p
		} else if s.last != nil {
			oldPfail = s.last.Pfail
		}
	}

	if err := s.asm.ReplaceService(updated); err != nil {
		return RepredictEvent{}, err
	}
	s.ev = core.New(s.wrapped(), s.opts)
	s.livePfail = math.NaN()
	newPfail, err := s.ev.PfailCtx(ctx, s.target, s.params...)
	if err != nil {
		// The learned parameter broke the model: roll back.
		if rerr := s.asm.ReplaceService(svc); rerr != nil {
			err = fmt.Errorf("%w (rollback failed: %v)", err, rerr)
		}
		s.ev = core.New(s.wrapped(), s.opts)
		return RepredictEvent{}, fmt.Errorf("runtime: repredict %s.%s=%g: %w", provider, attr, value, err)
	}
	s.livePfail = newPfail

	s.predicted = 1 - newPfail
	s.last = &LastGood{Pfail: newPfail, Provider: s.current.Provider, At: s.clock.Now()}
	// The re-predicted provider's quarantine and SPRT evidence judged
	// the old model; clear them so the corrected model gets a fresh
	// sequential test against the new prediction.
	s.tracker.Recover(provider)
	if err := s.tracker.Watch(s.current.Provider, s.predicted); err != nil {
		return RepredictEvent{}, err
	}

	ev := RepredictEvent{
		Provider: provider,
		Attr:     attr,
		OldValue: oldValue,
		NewValue: value,
		OldPfail: oldPfail,
		NewPfail: newPfail,
		At:       s.clock.Now(),
	}
	s.repredicts = appendCapped(s.repredicts, ev)
	return ev, nil
}

// Repredictions returns the most recent completed re-predictions (at
// most 64), oldest first; OnRepredict sees every one.
func (s *Supervisor) Repredictions() []RepredictEvent {
	s.lock()
	defer s.unlock()
	return append([]RepredictEvent(nil), s.repredicts...)
}
