package cluster

import "socrel/internal/estimate"

// Rumor is one anti-entropy gossip message: the sender's full view of
// fleet liveness and its failure-parameter evidence. The evidence
// payload is the estimator checkpoint, which also carries each bucket's
// drift verdict — and so, as upward drift, every quarantine.
//
// Full-state push gossip keeps the protocol trivially idempotent: a
// receiver folds the whole rumor in with estimate.Snapshot.Merge (a
// semilattice join), so dropped, duplicated, delayed, or reordered
// rumors all converge to the same state. The version vector exists
// purely to skip redundant merges, not for correctness.
type Rumor struct {
	// From is the sending replica.
	From string
	// Heartbeat is the sender's own heartbeat counter at send time.
	Heartbeat uint64
	// Heartbeats is the sender's view of every replica's latest
	// heartbeat (its own included), carrying liveness transitively: a
	// replica that cannot reach another directly still learns it is
	// alive through a common peer.
	Heartbeats map[string]uint64
	// EvidenceVV is the sender's version vector: for each replica, the
	// estimator generation of that replica's locally observed evidence
	// folded into Estimates. A receiver whose own vector dominates the
	// rumor's can skip the merge entirely — the rumor carries nothing
	// new.
	EvidenceVV map[string]uint64
	// Estimates is the sender's merged estimator checkpoint. Replicas
	// that never saw a drifting provider's traffic still converge on the
	// fleet's best evidence about it, drift verdicts included.
	Estimates map[string]estimate.Snapshot
}

// dominates reports whether local covers every entry of remote — i.e.
// the remote evidence is entirely old news.
func dominates(local, remote map[string]uint64) bool {
	for id, v := range remote {
		if local[id] < v {
			return false
		}
	}
	return true
}

// mergeVV folds remote into local entry-wise by max.
func mergeVV(local, remote map[string]uint64) {
	for id, v := range remote {
		if local[id] < v {
			local[id] = v
		}
	}
}
