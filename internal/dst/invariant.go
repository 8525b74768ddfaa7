package dst

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"socrel/internal/cluster"
	"socrel/internal/estimate"
	socruntime "socrel/internal/runtime"
)

// Simulation timing: one gossip round per virtual second, with the
// membership silence ladder at 3s/9s. The eventually-dead margin covers
// delayed in-flight traffic from the corpse plus enough rounds for every
// survivor's sweep to run.
const (
	simDeadAfter   = 9 * time.Second
	deadMargin     = 12 * time.Second
	convergedQuiet = 3
	ciMinObs       = 40
	ciSlack        = 1.5
)

// Invariant is one named checker run after every applied event.
type Invariant struct {
	Name  string
	Check func(*World) error
}

// Violation is one invariant failure, pinned to the step and event that
// exposed it.
type Violation struct {
	Invariant string
	Step      int
	Event     Event
	Err       error
}

func (v *Violation) Error() string {
	return fmt.Sprintf("step %d (%s): invariant %q violated: %v",
		v.Step, v.Event.Kind, v.Invariant, v.Err)
}

// DefaultInvariants returns the full checker suite.
func DefaultInvariants() []Invariant {
	return []Invariant{
		{"tagged-answers", checkTaggedAnswers},
		{"scope-consistency", checkScopeConsistency},
		{"gen-echo", checkGenEcho},
		{"gossip-convergence", checkGossipConvergence},
		{"eventually-dead", checkEventuallyDead},
		{"ci-band", checkCIBand},
	}
}

// checkTaggedAnswers: every served answer carries a kind, and exact ⇔
// nil-error holds — a degraded value must never masquerade as exact.
func checkTaggedAnswers(w *World) error {
	for i, sa := range w.LastAnswers() {
		if sa.Answer.Kind == socruntime.AnswerKind(0) {
			return fmt.Errorf("answer %d untagged: %+v", i, sa.Answer)
		}
		if (sa.Answer.Kind == socruntime.Exact) != (sa.Answer.Err == nil) {
			return fmt.Errorf("answer %d breaks exact ⇔ nil-error: kind %v err %v",
				i, sa.Answer.Kind, sa.Answer.Err)
		}
	}
	return nil
}

// checkScopeConsistency: exact and stale answers carry their scope's own
// oracle value — degraded state never leaks across scopes.
func checkScopeConsistency(w *World) error {
	for i, sa := range w.LastAnswers() {
		want := w.Oracle(sa.Scope)
		if k := sa.Answer.Kind; (k == socruntime.Exact || k == socruntime.Stale) && sa.Answer.Pfail != want {
			return fmt.Errorf("answer %d scope %s: pfail %v, want %v",
				i, sa.Scope, sa.Answer.Pfail, want)
		}
	}
	return nil
}

// checkGenEcho: an estimator's generation counts only locally observed
// evidence. It never decreases, and — the echo regression — gossip-only
// steps change no generation at all: a merged rumor must not read as
// fresh local evidence, or rumors echo forever and the version-vector
// skip is defeated. Drift steps may move only their target.
func checkGenEcho(w *World) error {
	if w.lastEvent.Kind == KindRestart {
		return nil // the restarted node's estimator is a fresh instance
	}
	for _, n := range w.Fleet().Nodes() {
		before, ok := w.gens[n.ID()]
		if !ok {
			continue
		}
		now := n.Estimator().Gen()
		if now < before {
			return fmt.Errorf("%s estimator gen went backwards: %d → %d", n.ID(), before, now)
		}
		if now == before {
			continue
		}
		switch w.lastEvent.Kind {
		case KindBurst:
			// Any replica may have evaluated (entry or forward target).
		case KindDrift:
			if n.ID() != w.lastEvent.Node {
				return fmt.Errorf("drift on %s bumped %s's gen %d → %d",
					w.lastEvent.Node, n.ID(), before, now)
			}
		default:
			return fmt.Errorf("%s event bumped %s's gen %d → %d — merged gossip counted as local evidence",
				w.lastEvent.Kind, n.ID(), before, now)
		}
	}
	return nil
}

// checkGossipConvergence: with no partition and a quiet run of advances,
// the live replicas' gossiped state is a converged semilattice join —
// identical estimator checkpoints (and so identical drift verdicts, the
// quarantine view) and mutually non-Dead membership.
func checkGossipConvergence(w *World) error {
	if w.PartitionActive() || w.Quiet() < convergedQuiet {
		return nil
	}
	live := w.Fleet().Live()
	if len(live) < 2 {
		return nil
	}
	ref := live[0]
	refEst := ref.Estimator().Checkpoint()
	for _, n := range live[1:] {
		if got := n.Estimator().Checkpoint(); !reflect.DeepEqual(refEst, got) {
			return fmt.Errorf("estimator checkpoints diverge after %d quiet rounds: %s has %d buckets, %s has %d",
				w.Quiet(), ref.ID(), len(refEst), n.ID(), len(got))
		}
	}
	for _, a := range live {
		for _, b := range live {
			if a.ID() != b.ID() && a.MemberState(b.ID()) == cluster.Dead {
				return fmt.Errorf("%s still judges live peer %s Dead after %d quiet rounds",
					a.ID(), b.ID(), w.Quiet())
			}
		}
	}
	return nil
}

// checkEventuallyDead: once a killed replica has been silent for well
// past DeadAfter (counted from the kill or the last membership join,
// whichever is later — a freshly joined node restarts its own silence
// ladder), every live replica that knows it must judge it Dead.
func checkEventuallyDead(w *World) error {
	for _, id := range w.Killed() {
		since := w.killedAt[id]
		if w.lastJoinAt.After(since) {
			since = w.lastJoinAt
		}
		if w.base.Now().Sub(since) < simDeadAfter+deadMargin {
			continue
		}
		for _, n := range w.Fleet().Live() {
			st := n.MemberState(id)
			if st == cluster.MemberState(0) {
				continue // never heard of it (joined after the death)
			}
			if st != cluster.Dead {
				return fmt.Errorf("%s judges killed %s as %v, %v after its last sign of life",
					n.ID(), id, st, w.base.Now().Sub(since))
			}
		}
	}
	return nil
}

// checkCIBand: wherever a drift event pinned a bucket's true failure
// probability, every live estimator with a usable fit for that bucket
// must hold a confidence interval that (with slack) covers the true
// rate λ = −ln(1−p). Buckets fed two different rates are skipped: their
// windows mix regimes and no single interval should cover both.
func checkCIBand(w *World) error {
	for ks, p := range w.trueRate {
		if w.conflicted[ks] {
			continue
		}
		key, err := estimate.ParseKey(ks)
		if err != nil {
			return err
		}
		lambda := -math.Log(1 - p)
		for _, n := range w.Fleet().Live() {
			est, ok := n.Estimator().Estimate(key)
			if !ok || est.Observations < ciMinObs {
				continue
			}
			if lambda < est.Lo/ciSlack || lambda > est.Hi*ciSlack {
				return fmt.Errorf("%s bucket %s: true rate %.4f outside slackened CI [%.4f, %.4f] (%d obs)",
					n.ID(), ks, lambda, est.Lo/ciSlack, est.Hi*ciSlack, est.Observations)
			}
		}
	}
	return nil
}
