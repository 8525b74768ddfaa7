// Package estimate closes the prediction loop: it learns the failure-law
// parameters the engine predicts with from the request outcomes the
// serving layer observes.
//
// The paper's model is white-box — Pfail is computed from per-provider
// constants (the λ of eq. (1), β of eq. (2), ϕ of eq. (14)) that an
// author wrote down. This package treats those constants as estimands
// instead: an Estimator ingests an outcome stream (success/failure,
// exposure under the failure law, latency, timestamp), buckets it per
// provider, per service context, and per load bucket, and fits each
// bucket's exponential failure rate by windowed MLE with confidence
// intervals (mle.go). A per-bucket drift detector (monitor.Drift, an
// exposure-weighted two-sided SPRT) tests the fitted stream against the
// rate currently bound in the model, and a Reactor (reactor.go) turns a
// confirmed drift into a re-prediction: rebind the parameter, recompute
// Pfail through the Supervisor, publish old and new predictions.
//
// Estimator state checkpoints into Snapshots that merge via an
// evidence-weighted join-semilattice (snapshot.go) — the same
// most-evidence-wins-plus-sticky-verdict construction as
// monitor.Snapshot.Merge — so estimates ride the cluster's anti-entropy
// gossip and every replica converges to the same learned parameters no
// matter how rumors are duplicated or reordered.
//
// All time behavior goes through runtime.Clock, so every test runs
// deterministically on a FakeClock.
package estimate

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"socrel/internal/monitor"
	"socrel/internal/runtime"
)

// Errors returned by this package.
var (
	// ErrBadConfig is returned for invalid estimator configuration.
	ErrBadConfig = errors.New("estimate: invalid configuration")
	// ErrBadKey is returned by ParseKey for malformed key strings.
	ErrBadKey = errors.New("estimate: invalid key")
	// ErrBadSnapshot is returned for inconsistent snapshots.
	ErrBadSnapshot = errors.New("estimate: invalid snapshot")
	// ErrBadBound is returned by SetBound for unusable rate values.
	ErrBadBound = errors.New("estimate: invalid bound rate")
)

// Key identifies one estimation bucket: a provider, the service context
// it was invoked under (e.g. the composite service or scope name), and a
// load bucket (e.g. a saturation level) — CARP-style context bucketing so
// a provider that degrades only under load or only for one workload is
// estimated apart from its healthy contexts.
type Key struct {
	Provider string
	Context  string
	Load     int
}

// String renders the key in the canonical "provider|context|load" form
// used as checkpoint map keys. Provider and context must not contain '|'.
func (k Key) String() string {
	return k.Provider + "|" + k.Context + "|" + strconv.Itoa(k.Load)
}

// ParseKey inverts Key.String.
func ParseKey(s string) (Key, error) {
	i := strings.Index(s, "|")
	j := strings.LastIndex(s, "|")
	if i < 0 || j <= i {
		return Key{}, fmt.Errorf("%w: %q", ErrBadKey, s)
	}
	load, err := strconv.Atoi(s[j+1:])
	if err != nil {
		return Key{}, fmt.Errorf("%w: %q: bad load bucket", ErrBadKey, s)
	}
	k := Key{Provider: s[:i], Context: s[i+1 : j], Load: load}
	if k.Provider == "" {
		return Key{}, fmt.Errorf("%w: %q: empty provider", ErrBadKey, s)
	}
	return k, nil
}

// Outcome is one observed invocation outcome.
type Outcome struct {
	// Provider, Context, and Load identify the estimation bucket.
	Provider string
	Context  string
	Load     int
	// Failed reports whether the invocation failed.
	Failed bool
	// Exposure is the exposure accumulated under the failure law (the
	// N/s of eq. (1) or B/b of eq. (2)); non-positive defaults to 1
	// (one nominal invocation).
	Exposure float64
	// Latency is the observed invocation latency.
	Latency time.Duration
	// At is the observation timestamp; zero defaults to the estimator's
	// clock.
	At time.Time
}

// DriftEvent describes a bucket whose drift detector just tripped.
type DriftEvent struct {
	// Key is the estimation bucket.
	Key Key
	// Direction is +1 for drift up (rate rose), -1 for drift down.
	Direction int
	// Bound is the rate the bucket was tested against and Rate the
	// current windowed MLE at the moment of the trip.
	Bound float64
	Rate  float64
	// Observations is the windowed evidence behind Rate.
	Observations int
	// At is the estimator clock at the trip.
	At time.Time
	// FromMerge reports whether the verdict arrived via gossip merge
	// rather than local observation.
	FromMerge bool
}

// Config parameterizes an Estimator.
type Config struct {
	// Window is the per-bucket sliding-window capacity in observations
	// (default 256).
	Window int
	// MaxAge additionally expires window entries older than this at
	// estimation time (0 = no age limit). With an age limit, a bucket
	// that stops receiving traffic decays to a censored sample whose
	// interval widens instead of freezing at stale point estimates.
	MaxAge time.Duration
	// Confidence is the confidence level for rate intervals, in (0,1)
	// (default 0.95).
	Confidence float64
	// DriftRatio, DriftAlpha, and DriftBeta parameterize each bucket's
	// drift detector (see monitor.DriftConfig; defaults 2, 0.01, 0.01).
	DriftRatio float64
	DriftAlpha float64
	DriftBeta  float64
	// Clock supplies time (default runtime.RealClock).
	Clock runtime.Clock
	// OnDrift, when set, is called whenever a bucket's drift verdict
	// becomes Violating — from a local observation or a gossip merge.
	// It runs with the estimator's lock held and must not call back.
	OnDrift func(DriftEvent)
}

func (c Config) withDefaults() (Config, error) {
	if c.Window == 0 {
		c.Window = 256
	}
	if c.Window < 1 {
		return c, fmt.Errorf("%w: window %d", ErrBadConfig, c.Window)
	}
	if c.MaxAge < 0 {
		return c, fmt.Errorf("%w: max age %v", ErrBadConfig, c.MaxAge)
	}
	if c.Confidence == 0 {
		c.Confidence = 0.95
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		return c, fmt.Errorf("%w: confidence %g", ErrBadConfig, c.Confidence)
	}
	if c.DriftRatio == 0 {
		c.DriftRatio = 2
	}
	if c.DriftAlpha == 0 {
		c.DriftAlpha = 0.01
	}
	if c.DriftBeta == 0 {
		c.DriftBeta = 0.01
	}
	// Validate the drift parameters once against a placeholder bound.
	if _, err := (monitor.DriftConfig{Bound: 1, Ratio: c.DriftRatio, Alpha: c.DriftAlpha, Beta: c.DriftBeta}).Validate(); err != nil {
		return c, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if c.Clock == nil {
		c.Clock = runtime.RealClock{}
	}
	return c, nil
}

// obs is one ring-buffered observation.
type obs struct {
	at       time.Time
	exposure float64
	failed   bool
	latency  time.Duration
}

// entry is one estimation bucket.
type entry struct {
	total    int
	failures int
	exposure float64

	ring    []obs
	ringPos int
	ringLen int

	bound float64
	drift *monitor.Drift
	// merged holds a verdict adopted from gossip when the local detector
	// cannot carry it (bound-less bucket); the effective verdict is the
	// join of both.
	mergedDecided monitor.Verdict
	mergedDir     int
}

// Stats are monotonic estimator counters.
type Stats struct {
	// Observed counts ingested outcomes; Keys is the live bucket count.
	Observed uint64 `json:"observed"`
	Keys     int    `json:"keys"`
	// DriftViolations counts drift-verdict trips (local or merged).
	DriftViolations uint64 `json:"drift_violations"`
	// Merged counts snapshots folded in via MergeCheckpoint; BadMerges
	// counts snapshots rejected as invalid.
	Merged    uint64 `json:"merged"`
	BadMerges uint64 `json:"bad_merges"`
}

// Estimator fits per-bucket failure rates from an outcome stream.
// All methods are safe for concurrent use.
type Estimator struct {
	cfg   Config
	clock runtime.Clock

	// gen counts local state changes: observations and bound changes.
	// MergeCheckpoint deliberately does not bump it — merged-in evidence
	// is already versioned by its senders — so the cluster layer can fold
	// gen into gossip version vectors: new local evidence invalidates
	// rumor-skip, and a merge never reads as fresh local evidence.
	gen atomic.Uint64

	mu      sync.Mutex
	entries map[Key]*entry
	stats   Stats
	// fails is estimateLocked's failure-exposure scratch, reused under mu
	// so a fit allocates nothing.
	fails []expGroup
}

// New returns an Estimator for the given configuration.
func New(cfg Config) (*Estimator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Estimator{
		cfg:     cfg,
		clock:   cfg.Clock,
		entries: make(map[Key]*entry),
	}, nil
}

// Gen returns a monotonic counter bumped by every local observation
// and SetBound; merges leave it unchanged.
func (e *Estimator) Gen() uint64 { return e.gen.Load() }

// Config returns the estimator's (defaulted) configuration.
func (e *Estimator) Config() Config { return e.cfg }

func (e *Estimator) entryLocked(k Key) *entry {
	en := e.entries[k]
	if en == nil {
		en = &entry{ring: make([]obs, e.cfg.Window)}
		e.entries[k] = en
	}
	return en
}

// effectiveVerdict joins the detector's verdict with any merged one.
func (en *entry) effectiveVerdict() (monitor.Verdict, int) {
	d, dir := en.mergedDecided, en.mergedDir
	if en.drift != nil {
		dv, ddir := en.drift.Verdict(), en.drift.Direction()
		if dv > d || (dv == d && ddir > dir) {
			d, dir = dv, ddir
		}
	}
	return d, dir
}

// Observe ingests one outcome and returns the bucket's drift verdict
// after the update (zero Verdict when the bucket has no bound to drift
// from).
func (e *Estimator) Observe(o Outcome) monitor.Verdict {
	if o.Exposure <= 0 || math.IsNaN(o.Exposure) || math.IsInf(o.Exposure, 0) {
		o.Exposure = 1
	}
	if o.At.IsZero() {
		o.At = e.clock.Now()
	}
	k := Key{Provider: o.Provider, Context: o.Context, Load: o.Load}

	e.mu.Lock()
	defer e.mu.Unlock()
	en := e.entryLocked(k)

	en.total++
	if o.Failed {
		en.failures++
	}
	en.exposure += o.Exposure
	if en.ringLen == len(en.ring) {
		// Evict the oldest.
	} else {
		en.ringLen++
	}
	en.ring[en.ringPos] = obs{at: o.At, exposure: o.Exposure, failed: o.Failed, latency: o.Latency}
	en.ringPos = (en.ringPos + 1) % len(en.ring)

	e.stats.Observed++
	e.gen.Add(1)

	if en.drift != nil {
		before, _ := en.effectiveVerdict()
		en.drift.Record(o.Exposure, o.Failed)
		if en.drift.Verdict() == monitor.Meeting {
			// The bound is confirmed at the current evidence. Park the
			// confirmation in the merged-verdict slot and re-arm the live
			// detector: a sticky Meeting would blind the bucket to drift
			// that starts after a long healthy stretch.
			en.mergedDecided, en.mergedDir = joinVerdict(en.mergedDecided, en.mergedDir, monitor.Meeting, 0)
			en.drift.Reset()
		}
		after, dir := en.effectiveVerdict()
		if after == monitor.Violating && before != monitor.Violating {
			e.tripLocked(k, en, dir, false)
		}
	}
	v, _ := en.effectiveVerdict()
	return v
}

// tripLocked records a drift trip and fires OnDrift. Callers hold e.mu.
func (e *Estimator) tripLocked(k Key, en *entry, dir int, fromMerge bool) {
	e.stats.DriftViolations++
	if e.cfg.OnDrift == nil {
		return
	}
	est, _ := e.estimateLocked(en)
	e.cfg.OnDrift(DriftEvent{
		Key:          k,
		Direction:    dir,
		Bound:        en.bound,
		Rate:         est.Rate,
		Observations: est.Observations,
		At:           e.clock.Now(),
		FromMerge:    fromMerge,
	})
}

// SetBound binds the rate the bucket's drift detector tests against —
// the value currently live in the model — and (re-)arms the detector,
// discarding prior drift evidence. A zero rate clears the bound and
// disables drift detection for the bucket.
func (e *Estimator) SetBound(k Key, rate float64) error {
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return fmt.Errorf("%w: %g", ErrBadBound, rate)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	en := e.entryLocked(k)
	en.bound = rate
	en.mergedDecided, en.mergedDir = 0, 0
	if rate == 0 {
		en.drift = nil
	} else {
		d, err := monitor.NewDrift(monitor.DriftConfig{
			Bound: rate,
			Ratio: e.cfg.DriftRatio,
			Alpha: e.cfg.DriftAlpha,
			Beta:  e.cfg.DriftBeta,
		})
		if err != nil {
			return err
		}
		en.drift = d
	}
	e.gen.Add(1)
	return nil
}

// Bound returns the bucket's currently bound rate (0 when unbound).
func (e *Estimator) Bound(k Key) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if en := e.entries[k]; en != nil {
		return en.bound
	}
	return 0
}

// Verdict returns the bucket's drift verdict: the join of the local
// detector's verdict and any verdict adopted from gossip. The zero
// Verdict means the bucket is unknown or has no bound.
func (e *Estimator) Verdict(k Key) (monitor.Verdict, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if en := e.entries[k]; en != nil {
		return en.effectiveVerdict()
	}
	return 0, 0
}

// DriftingUp reports whether any of the provider's buckets has the
// effective drift verdict Violating with Direction +1: the provider
// fails measurably more often than its bound, by local observation or
// by a verdict merged from gossip. It reads verdicts only, in one pass
// under the lock, and fits nothing.
func (e *Estimator) DriftingUp(provider string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for k, en := range e.entries {
		if k.Provider != provider {
			continue
		}
		if v, dir := en.effectiveVerdict(); v == monitor.Violating && dir == 1 {
			return true
		}
	}
	return false
}

// estimateLocked fits the bucket's windowed rate. Callers hold e.mu.
func (e *Estimator) estimateLocked(en *entry) (Estimate, bool) {
	var cutoff time.Time
	if e.cfg.MaxAge > 0 {
		cutoff = e.clock.Now().Add(-e.cfg.MaxAge)
	}
	start := 0
	if en.ringLen == len(en.ring) {
		start = en.ringPos
	}
	var (
		succExp  float64
		count    int
		failures int
		exposure float64
		latency  time.Duration
	)
	fails := e.fails[:0]
	for i := 0; i < en.ringLen; i++ {
		o := en.ring[(start+i)%len(en.ring)]
		if !cutoff.IsZero() && o.at.Before(cutoff) {
			continue
		}
		count++
		exposure += o.exposure
		latency += o.latency
		if o.failed {
			failures++
			fails = append(fails, expGroup{t: o.exposure, n: 1})
		} else {
			succExp += o.exposure
		}
	}
	e.fails = fails
	rate, lo, hi, ok := fitRate(groupExposures(fails), succExp, e.cfg.Confidence)
	if !ok {
		return Estimate{Failures: failures, Observations: count, Exposure: exposure}, false
	}
	est := Estimate{
		Rate:         rate,
		Lo:           lo,
		Hi:           hi,
		Failures:     failures,
		Observations: count,
		Exposure:     exposure,
	}
	if count > 0 {
		est.MeanLatency = latency.Seconds() / float64(count)
	}
	return est, true
}

// Estimate fits the bucket's windowed failure rate, reporting ok=false
// when the bucket is unknown or carries no usable exposure.
func (e *Estimator) Estimate(k Key) (Estimate, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	en := e.entries[k]
	if en == nil {
		return Estimate{}, false
	}
	return e.estimateLocked(en)
}

// BucketEstimate is one bucket's full estimation state, as exposed by
// /estimates.
type BucketEstimate struct {
	Key      Key
	Estimate Estimate
	// OK reports whether Estimate carries a usable fit.
	OK bool
	// Bound is the bucket's bound rate (0 when unbound); Drift its
	// effective verdict (zero when unbound) and Direction the drift
	// sign.
	Bound     float64
	Drift     monitor.Verdict
	Direction int
}

// All returns every bucket's estimation state, sorted by key.
func (e *Estimator) All() []BucketEstimate {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]BucketEstimate, 0, len(e.entries))
	for k, en := range e.entries {
		est, ok := e.estimateLocked(en)
		v, dir := en.effectiveVerdict()
		out = append(out, BucketEstimate{Key: k, Estimate: est, OK: ok, Bound: en.bound, Drift: v, Direction: dir})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out
}

// Stats returns a copy of the estimator's counters.
func (e *Estimator) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.Keys = len(e.entries)
	return s
}
