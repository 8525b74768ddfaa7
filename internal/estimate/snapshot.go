package estimate

// Estimator checkpoints and their gossip merge — the one evidence
// lattice a fleet gossips. Two replicas observed *different* outcome
// streams for the same bucket, so summing their counts would
// double-count evidence as rumors are re-delivered. Merge instead picks
// the snapshot carrying the most evidence under a deterministic total
// order over the statistical content, and joins the drift verdict
// separately by lexicographic max over (verdict, direction) — so a
// tripped detector on either side stays tripped no matter which side
// wins on evidence. The product of the two joins is a join-semilattice:
// commutative, associative, idempotent, hence convergent under
// re-delivered and reordered gossip.
//
// The evidence comparator must never read Decided or Direction: the
// verdict join rewrites those fields, and a comparator depending on them
// would order merged snapshots differently from their inputs, breaking
// associativity.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"socrel/internal/monitor"
)

// ObsSnapshot is one window entry of a Snapshot.
type ObsSnapshot struct {
	At       time.Time
	Exposure float64
	Failed   bool
	Latency  time.Duration
}

// Snapshot is a self-contained checkpoint of one estimation bucket. All
// fields are exported so it serializes with encoding/json as-is; maps of
// Key.String() to Snapshot form the estimator checkpoint that rides
// cluster gossip.
type Snapshot struct {
	// Total, Failures, and Exposure are the cumulative counts.
	Total    int
	Failures int
	Exposure float64
	// Window holds the sliding-window observations, oldest first.
	Window []ObsSnapshot
	// Bound is the bucket's bound rate (0 when unbound) and DriftRatio,
	// DriftAlpha, DriftBeta its detector parameters (meaningful only
	// with a bound).
	Bound      float64
	DriftRatio float64
	DriftAlpha float64
	DriftBeta  float64
	// LLRUp and LLRDown are the detector's one-sided log likelihood
	// ratios (0 when unbound).
	LLRUp   float64
	LLRDown float64
	// Decided is the bucket's effective drift verdict (the zero Verdict
	// when the bucket never had a bound) and Direction its sign.
	Decided   monitor.Verdict
	Direction int
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// validate checks a snapshot's internal consistency.
func (s Snapshot) validate() error {
	if s.Total < 0 || s.Failures < 0 || s.Failures > s.Total {
		return fmt.Errorf("%w: %d failures of %d outcomes", ErrBadSnapshot, s.Failures, s.Total)
	}
	if !finite(s.Exposure) || s.Exposure < 0 {
		return fmt.Errorf("%w: exposure %g", ErrBadSnapshot, s.Exposure)
	}
	if len(s.Window) > s.Total {
		return fmt.Errorf("%w: window of %d entries exceeds total %d", ErrBadSnapshot, len(s.Window), s.Total)
	}
	winFail := 0
	for i, o := range s.Window {
		if !finite(o.Exposure) || o.Exposure < 0 {
			return fmt.Errorf("%w: window[%d] exposure %g", ErrBadSnapshot, i, o.Exposure)
		}
		if o.Latency < 0 {
			return fmt.Errorf("%w: window[%d] latency %v", ErrBadSnapshot, i, o.Latency)
		}
		if o.Failed {
			winFail++
		}
	}
	if winFail > s.Failures {
		return fmt.Errorf("%w: %d windowed failures exceed cumulative %d", ErrBadSnapshot, winFail, s.Failures)
	}
	if !finite(s.Bound) || s.Bound < 0 {
		return fmt.Errorf("%w: bound %g", ErrBadSnapshot, s.Bound)
	}
	if !finite(s.LLRUp) || !finite(s.LLRDown) {
		return fmt.Errorf("%w: non-finite log likelihood ratio", ErrBadSnapshot)
	}
	switch s.Decided {
	case 0, monitor.Undecided, monitor.Meeting, monitor.Violating:
	default:
		return fmt.Errorf("%w: verdict %d", ErrBadSnapshot, int(s.Decided))
	}
	switch s.Direction {
	case -1, 0, +1:
	default:
		return fmt.Errorf("%w: drift direction %d", ErrBadSnapshot, s.Direction)
	}
	if (s.Decided == monitor.Violating) != (s.Direction != 0) {
		return fmt.Errorf("%w: verdict %v with direction %d", ErrBadSnapshot, s.Decided, s.Direction)
	}
	if s.Bound > 0 {
		if s.Decided == 0 {
			return fmt.Errorf("%w: bound %g with no verdict", ErrBadSnapshot, s.Bound)
		}
		if _, err := (monitor.DriftConfig{Bound: s.Bound, Ratio: s.DriftRatio, Alpha: s.DriftAlpha, Beta: s.DriftBeta}).Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
	}
	return nil
}

// Merge combines two snapshots of the same bucket observed from
// different vantage points. The statistics come from the input carrying
// the most evidence; the drift verdict joins separately (lexicographic
// max over verdict then direction), so a tripped detector on either
// input is preserved. Both inputs must be valid snapshots.
func (s Snapshot) Merge(o Snapshot) (Snapshot, error) {
	if err := s.validate(); err != nil {
		return Snapshot{}, err
	}
	if err := o.validate(); err != nil {
		return Snapshot{}, err
	}
	win := s
	if compareEvidence(s, o) < 0 {
		win = o
	}
	out := win
	out.Window = append([]ObsSnapshot(nil), win.Window...)
	out.Decided, out.Direction = joinVerdict(s.Decided, s.Direction, o.Decided, o.Direction)
	return out, nil
}

// joinVerdict is the verdict lattice's join: lexicographic max over
// (verdict, direction), with Violating > Meeting > Undecided > none.
func joinVerdict(av monitor.Verdict, ad int, bv monitor.Verdict, bd int) (monitor.Verdict, int) {
	if av > bv || (av == bv && ad >= bd) {
		return av, ad
	}
	return bv, bd
}

// compareEvidence is a deterministic total order over a snapshot's
// statistical content (everything except Decided/Direction): more
// outcomes first, then more failures (the more alarming evidence), then
// more exposure, then the larger drift likelihood ratios; the remaining
// comparisons exist only to make the order total so Merge is
// commutative.
func compareEvidence(a, b Snapshot) int {
	if a.Total != b.Total {
		return cmpInt(a.Total, b.Total)
	}
	if a.Failures != b.Failures {
		return cmpInt(a.Failures, b.Failures)
	}
	for _, c := range [8][2]float64{
		{a.Exposure, b.Exposure},
		{a.LLRUp, b.LLRUp},
		{a.LLRDown, b.LLRDown},
		{a.Bound, b.Bound},
		{a.DriftRatio, b.DriftRatio},
		{a.DriftAlpha, b.DriftAlpha},
		{a.DriftBeta, b.DriftBeta},
		{float64(len(a.Window)), float64(len(b.Window))},
	} {
		if c[0] != c[1] {
			return cmpFloat(c[0], c[1])
		}
	}
	for i := range a.Window {
		x, y := a.Window[i], b.Window[i]
		if !x.At.Equal(y.At) {
			return cmpInt64(x.At.UnixNano(), y.At.UnixNano())
		}
		if x.Exposure != y.Exposure {
			return cmpFloat(x.Exposure, y.Exposure)
		}
		if x.Failed != y.Failed {
			if x.Failed {
				return 1
			}
			return -1
		}
		if x.Latency != y.Latency {
			return cmpInt64(int64(x.Latency), int64(y.Latency))
		}
	}
	return 0
}

func cmpInt(a, b int) int {
	switch {
	case a > b:
		return 1
	case a < b:
		return -1
	default:
		return 0
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a > b:
		return 1
	case a < b:
		return -1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a > b:
		return 1
	case a < b:
		return -1
	default:
		return 0
	}
}

// snapshotLocked captures one bucket. Callers hold e.mu.
func (e *Estimator) snapshotLocked(en *entry) Snapshot {
	s := Snapshot{
		Total:    en.total,
		Failures: en.failures,
		Exposure: en.exposure,
		Bound:    en.bound,
	}
	start := 0
	if en.ringLen == len(en.ring) {
		start = en.ringPos
	}
	s.Window = make([]ObsSnapshot, 0, en.ringLen)
	for i := 0; i < en.ringLen; i++ {
		o := en.ring[(start+i)%len(en.ring)]
		s.Window = append(s.Window, ObsSnapshot{At: o.at, Exposure: o.exposure, Failed: o.failed, Latency: o.latency})
	}
	if en.drift != nil {
		ds := en.drift.Snapshot()
		s.DriftRatio = ds.Config.Ratio
		s.DriftAlpha = ds.Config.Alpha
		s.DriftBeta = ds.Config.Beta
		s.LLRUp = ds.LLRUp
		s.LLRDown = ds.LLRDown
	}
	s.Decided, s.Direction = en.effectiveVerdict()
	if en.drift != nil && s.Decided == 0 {
		s.Decided = monitor.Undecided
	}
	return s
}

// restoreEntryLocked rebuilds a bucket from a valid snapshot. The window
// is truncated to the estimator's own capacity (newest entries win).
// Callers hold e.mu.
func (e *Estimator) restoreEntryLocked(s Snapshot) (*entry, error) {
	en := &entry{
		total:    s.Total,
		failures: s.Failures,
		exposure: s.Exposure,
		ring:     make([]obs, e.cfg.Window),
		bound:    s.Bound,
	}
	win := s.Window
	if len(win) > e.cfg.Window {
		win = win[len(win)-e.cfg.Window:]
	}
	for i, o := range win {
		en.ring[i] = obs{at: o.At, exposure: o.Exposure, failed: o.Failed, latency: o.Latency}
	}
	en.ringLen = len(win)
	en.ringPos = len(win) % e.cfg.Window
	if s.Bound > 0 {
		decided := s.Decided
		if decided == 0 {
			decided = monitor.Undecided
		}
		llrUp, llrDown, dir := s.LLRUp, s.LLRDown, s.Direction
		if decided == monitor.Meeting {
			// Meeting never freezes the live detector (see Observe): park
			// the confirmation in the merged slot and restore the detector
			// re-armed so the bucket keeps watching for later drift.
			en.mergedDecided, en.mergedDir = monitor.Meeting, 0
			decided, dir = monitor.Undecided, 0
			llrUp, llrDown = 0, 0
		}
		d, err := monitor.RestoreDrift(monitor.DriftSnapshot{
			Config:    monitor.DriftConfig{Bound: s.Bound, Ratio: s.DriftRatio, Alpha: s.DriftAlpha, Beta: s.DriftBeta},
			LLRUp:     llrUp,
			LLRDown:   llrDown,
			Decided:   decided,
			Direction: dir,
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		en.drift = d
	} else {
		en.mergedDecided, en.mergedDir = s.Decided, s.Direction
	}
	return en, nil
}

// Checkpoint captures the estimator's complete state as a map from
// Key.String() to bucket snapshot, suitable for gossip or persistence.
func (e *Estimator) Checkpoint() map[string]Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]Snapshot, len(e.entries))
	for k, en := range e.entries {
		out[k.String()] = e.snapshotLocked(en)
	}
	return out
}

// RestoreCheckpoint replaces any buckets named in the checkpoint with the
// checkpointed state (other buckets are untouched). Invalid keys or
// snapshots fail the whole restore without partial application.
func (e *Estimator) RestoreCheckpoint(cp map[string]Snapshot) error {
	restored := make(map[Key]*entry, len(cp))
	e.mu.Lock()
	defer e.mu.Unlock()
	for ks, s := range cp {
		k, err := ParseKey(ks)
		if err != nil {
			return err
		}
		if err := s.validate(); err != nil {
			return fmt.Errorf("bucket %q: %w", ks, err)
		}
		en, err := e.restoreEntryLocked(s)
		if err != nil {
			return fmt.Errorf("bucket %q: %w", ks, err)
		}
		restored[k] = en
	}
	for k, en := range restored {
		e.entries[k] = en
	}
	e.gen.Add(1)
	return nil
}

// MergeCheckpoint folds a remote checkpoint into the estimator: unknown
// buckets are adopted, known buckets merge via Snapshot.Merge. Invalid
// entries are counted and skipped (gossip keeps flowing past one bad
// bucket); the first error is returned after the full pass. A bucket
// whose effective verdict flips to Violating through the merge fires
// OnDrift with FromMerge set.
func (e *Estimator) MergeCheckpoint(cp map[string]Snapshot) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var firstErr error
	for _, ks := range sortedKeys(cp) {
		s := cp[ks]
		k, err := ParseKey(ks)
		if err != nil {
			e.stats.BadMerges++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		local, known := e.entries[k]
		merged := s
		var before monitor.Verdict
		if known {
			before, _ = local.effectiveVerdict()
			merged, err = e.snapshotLocked(local).Merge(s)
		} else {
			err = s.validate()
		}
		if err != nil {
			e.stats.BadMerges++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		en, err := e.restoreEntryLocked(merged)
		if err != nil {
			e.stats.BadMerges++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		e.entries[k] = en
		e.stats.Merged++
		// No e.gen bump: gen versions *locally observed* evidence for
		// gossip version vectors. Merged-in state is already covered by
		// the senders' own vector entries; bumping here would make every
		// merge look like fresh local evidence and defeat the
		// dominance-based skip (rumors would echo forever).
		if after, dir := en.effectiveVerdict(); after == monitor.Violating && before != monitor.Violating {
			e.tripLocked(k, en, dir, true)
		}
	}
	return firstErr
}

func sortedKeys(m map[string]Snapshot) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
