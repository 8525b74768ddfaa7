package estimate

// The Reactor is the acting half of the estimation loop. The Estimator
// only learns; the Reactor decides when learned reality has diverged from
// the bound model far enough to act, and then acts: it rebinds the
// drifted parameter and recomputes Pfail through a Repredictor (the
// runtime Supervisor), publishing the old and new predictions together
// with the triggering estimate.
//
// The trigger is deliberately conjunctive — all of:
//
//  1. the bucket's drift SPRT is Violating (sequential evidence with
//     bounded error rates),
//  2. the windowed MLE moved past RelThreshold relative to the bound
//     (the move is worth acting on),
//  3. the bound lies outside the estimate's confidence interval (the
//     move is resolvable at the current evidence), and
//  4. the window holds at least MinObservations outcomes,
//
// so a single unlucky burst neither rebinds the model nor flaps it back.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"socrel/internal/monitor"
)

// Repredictor applies a re-estimated failure-law parameter to the live
// model and recomputes the prediction. *runtime.Supervisor implements it.
type Repredictor interface {
	Repredict(ctx context.Context, provider, attr string, rate float64) (oldPfail, newPfail float64, err error)
}

// RepredictEvent describes one completed re-prediction.
type RepredictEvent struct {
	// Key is the estimation bucket and Attr the rebound model attribute
	// (e.g. "lambda", "beta").
	Key  Key
	Attr string
	// OldRate/NewRate are the parameter before and after; OldPfail and
	// NewPfail the prediction before and after.
	OldRate, NewRate   float64
	OldPfail, NewPfail float64
	// Estimate is the windowed estimate that triggered the move.
	Estimate Estimate
	// At is the reactor clock at the re-prediction.
	At time.Time
}

// ReactorConfig parameterizes a Reactor.
type ReactorConfig struct {
	// Estimator supplies estimates and drift verdicts (required).
	Estimator *Estimator
	// Repredictor, when set, receives confirmed drifts as re-prediction
	// requests.
	Repredictor Repredictor
	// RelThreshold is the minimum relative parameter move to act on
	// (default 0.25).
	RelThreshold float64
	// MinObservations is the minimum windowed evidence to act on
	// (default 20).
	MinObservations int
	// OnRepredict, when set, is called after every completed
	// re-prediction, outside the reactor's lock for the estimator but
	// while the reactor's own lock is held — it must not call back into
	// the reactor.
	OnRepredict func(RepredictEvent)
}

// ReactorStats are monotonic reactor counters.
type ReactorStats struct {
	// Steps counts Step passes; Considered counts binding evaluations.
	Steps      uint64
	Considered uint64
	// Triggered counts trigger-gate passes, Repredicted completed
	// re-predictions, and RepredictErrors failed attempts (retried on the
	// next Step).
	Triggered       uint64
	Repredicted     uint64
	RepredictErrors uint64
}

// binding is one parameter under reactor management.
type binding struct {
	attr string
	rate float64
}

// Reactor watches bound parameters and re-predicts on confirmed drift.
// All methods are safe for concurrent use.
type Reactor struct {
	cfg ReactorConfig

	mu       sync.Mutex
	bindings map[Key]*binding
	lastErr  error
	stats    ReactorStats
}

// NewReactor returns a Reactor for the given configuration.
func NewReactor(cfg ReactorConfig) (*Reactor, error) {
	if cfg.Estimator == nil {
		return nil, fmt.Errorf("%w: reactor needs an estimator", ErrBadConfig)
	}
	if cfg.RelThreshold == 0 {
		cfg.RelThreshold = 0.25
	}
	if cfg.RelThreshold < 0 || math.IsNaN(cfg.RelThreshold) || math.IsInf(cfg.RelThreshold, 0) {
		return nil, fmt.Errorf("%w: relative threshold %g", ErrBadConfig, cfg.RelThreshold)
	}
	if cfg.MinObservations == 0 {
		cfg.MinObservations = 20
	}
	if cfg.MinObservations < 1 {
		return nil, fmt.Errorf("%w: min observations %d", ErrBadConfig, cfg.MinObservations)
	}
	return &Reactor{cfg: cfg, bindings: make(map[Key]*binding)}, nil
}

// Bind registers a model parameter under reactor management: the bucket's
// outcomes are tested against rate (the value live in the model for
// attr), and confirmed drift re-predicts through the Repredictor using
// the bucket's Provider and attr.
func (r *Reactor) Bind(k Key, attr string, rate float64) error {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return fmt.Errorf("%w: %g", ErrBadBound, rate)
	}
	if err := r.cfg.Estimator.SetBound(k, rate); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bindings[k] = &binding{attr: attr, rate: rate}
	return nil
}

// Observe forwards one outcome to the estimator and, when it trips the
// bucket's drift verdict, immediately runs a Step.
func (r *Reactor) Observe(ctx context.Context, o Outcome) ([]RepredictEvent, error) {
	if v := r.cfg.Estimator.Observe(o); v != monitor.Violating {
		return nil, nil
	}
	return r.Step(ctx)
}

// Step evaluates every managed binding once, in deterministic key order,
// re-predicting those whose drift is confirmed. It returns
// the completed re-predictions; a failed re-prediction attempt records an
// error (returned after the full pass) and is retried on the next Step.
func (r *Reactor) Step(ctx context.Context) ([]RepredictEvent, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Steps++

	keys := make([]Key, 0, len(r.bindings))
	for k := range r.bindings {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })

	var (
		events   []RepredictEvent
		firstErr error
	)
	for _, k := range keys {
		b := r.bindings[k]
		r.stats.Considered++
		est, ok := r.cfg.Estimator.Estimate(k)
		if !ok || est.Observations < r.cfg.MinObservations {
			continue
		}
		if v, _ := r.cfg.Estimator.Verdict(k); v != monitor.Violating {
			continue
		}
		// Conservative target: with zero windowed failures the MLE is 0,
		// which is not a usable rate — rebind to the interval's upper
		// bound instead (the largest rate the censored window supports).
		target := est.Rate
		if target <= 0 {
			target = est.Hi
		}
		if target <= 0 {
			continue
		}
		if math.Abs(target-b.rate)/b.rate < r.cfg.RelThreshold {
			continue
		}
		if b.rate >= est.Lo && b.rate <= est.Hi {
			continue
		}
		r.stats.Triggered++

		if r.cfg.Repredictor == nil {
			continue
		}

		oldPfail, newPfail, err := r.cfg.Repredictor.Repredict(ctx, k.Provider, b.attr, target)
		if err != nil {
			r.stats.RepredictErrors++
			r.lastErr = err
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ev := RepredictEvent{
			Key:      k,
			Attr:     b.attr,
			OldRate:  b.rate,
			NewRate:  target,
			OldPfail: oldPfail,
			NewPfail: newPfail,
			Estimate: est,
			At:       r.cfg.Estimator.Config().Clock.Now(),
		}
		b.rate = target
		if err := r.cfg.Estimator.SetBound(k, target); err != nil && firstErr == nil {
			firstErr = err
		}
		r.stats.Repredicted++
		events = append(events, ev)
		if r.cfg.OnRepredict != nil {
			r.cfg.OnRepredict(ev)
		}
	}
	return events, firstErr
}

// Rate returns the rate the reactor currently has bound for the bucket
// (0 when unmanaged).
func (r *Reactor) Rate(k Key) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b := r.bindings[k]; b != nil {
		return b.rate
	}
	return 0
}

// LastErr returns the most recent re-prediction error (nil when none).
func (r *Reactor) LastErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}

// Stats returns a copy of the reactor's counters.
func (r *Reactor) Stats() ReactorStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}
