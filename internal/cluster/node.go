package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"socrel/internal/estimate"
	"socrel/internal/monitor"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
)

// ErrStopped is the terminal error a stopped node attaches to the
// Unavailable answers it hands out.
var ErrStopped = errors.New("cluster: node stopped")

// NodeConfig configures one replica.
type NodeConfig struct {
	// ID names the replica; it must be unique fleet-wide.
	ID string
	// Seeds are the replica IDs known at boot (self is implied). Every
	// seed starts Alive on the ring; gossip corrects the optimism.
	Seeds []string
	// VNodes is the virtual-node count per replica (default 64).
	VNodes int
	// Fanout is how many live peers each gossip round pushes to; 0 means
	// all of them (fine for small fleets, where a full push converges in
	// one round along every surviving link).
	Fanout int
	// GossipInterval is the background gossip period (default 100ms).
	// Only Fleet.Start's loop uses it; tests drive rounds directly.
	GossipInterval time.Duration
	// SuspectAfter is the silence after which a peer turns Suspect
	// (default 4 gossip intervals).
	SuspectAfter time.Duration
	// DeadAfter is the silence after which a peer turns Dead and leaves
	// the ring (default 12 gossip intervals; clamped above SuspectAfter).
	DeadAfter time.Duration
	// Seed feeds the fanout-selection RNG (deterministic per replica).
	Seed int64
	// GenBase offsets the node's evidence generation. A restarted
	// incarnation passes its predecessor's counter so the version-vector
	// entry it publishes for itself stays monotonic across the restart —
	// peers would otherwise dominance-skip its rumors as already-seen
	// until the fresh counter outran the ghost's.
	GenBase uint64
	// Clock supplies time; defaults to the real clock.
	Clock socruntime.Clock
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.GossipInterval <= 0 {
		c.GossipInterval = 100 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 4 * c.GossipInterval
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = 3 * c.SuspectAfter
	}
	if c.Clock == nil {
		c.Clock = socruntime.RealClock{}
	}
	return c
}

// NodeStats counts one replica's cluster-level traffic. Request counts
// classify by routing outcome; the per-request serving detail lives in
// the embedded server's own Stats.
type NodeStats struct {
	// ServedLocal counts requests this replica owned (or that had no
	// owner because the ring was empty) and served directly.
	ServedLocal uint64 `json:"served_local"`
	// Forwarded counts requests handed to their owner, one hop.
	Forwarded uint64 `json:"forwarded"`
	// ForwardFailed counts forwards that failed (peer unreachable or
	// stopped) and fell back to serving locally.
	ForwardFailed uint64 `json:"forward_failed"`
	// ServedForDead counts requests whose ring owner was marked Dead, so
	// this replica served them itself rather than forwarding into a hole.
	ServedForDead uint64 `json:"served_for_dead"`
	// ServedForwarded counts requests received from a peer's forward.
	ServedForwarded uint64 `json:"served_forwarded"`
	// ReadRepaired counts forwarded answers whose time this replica
	// adopted as its scope's last exact time, so a later partition finds
	// the scope's record already warm here.
	ReadRepaired uint64 `json:"read_repaired"`
	// RumorsSent and RumorsReceived count gossip traffic.
	RumorsSent     uint64 `json:"rumors_sent"`
	RumorsReceived uint64 `json:"rumors_received"`
	// RumorsSkipped counts received rumors whose version vector the
	// local one already dominated — no merge needed.
	RumorsSkipped uint64 `json:"rumors_skipped"`
	// EvidenceMerged counts rumors folded in, not dominance-skipped.
	EvidenceMerged uint64 `json:"evidence_merged"`
	// EstimatesMerged counts rumors whose estimator checkpoint was folded
	// into the local estimator; BadEstimates counts rumors where that
	// merge rejected at least one snapshot.
	EstimatesMerged uint64 `json:"estimates_merged"`
	BadEstimates    uint64 `json:"bad_estimates"`
}

// Node is one replica: an embedded serving tier (admission control,
// degradation ladder) plus a failure-parameter estimator, joined to its
// peers by consistent-hash routing and gossip of the estimator's
// checkpoint. The estimator is the replica's only evidence record;
// quarantine is read off its drift verdicts. All methods are safe for
// concurrent use.
type Node struct {
	cfg       NodeConfig
	clock     socruntime.Clock
	srv       *server.Server
	est       *estimate.Estimator
	transport Transport

	mu      sync.Mutex
	ring    *Ring
	members map[string]*member
	vv      map[string]uint64
	rng     *rand.Rand
	stats   NodeStats
	stopped bool
}

// NewNode wires a replica over an existing server and estimator and
// registers nothing — callers register it with the transport when it is
// ready to receive (Fleet does both).
func NewNode(cfg NodeConfig, srv *server.Server, est *estimate.Estimator, transport Transport) (*Node, error) {
	if cfg.ID == "" {
		return nil, errors.New("cluster: NodeConfig.ID required")
	}
	if srv == nil || est == nil || transport == nil {
		return nil, errors.New("cluster: NewNode requires a server, estimator, and transport")
	}
	cfg = cfg.withDefaults()
	n := &Node{
		cfg:       cfg,
		clock:     cfg.Clock,
		srv:       srv,
		est:       est,
		transport: transport,
		ring:      NewRing(cfg.VNodes),
		members:   make(map[string]*member),
		vv:        make(map[string]uint64),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}
	now := n.clock.Now()
	n.members[cfg.ID] = &member{id: cfg.ID, state: Alive, lastAlive: now}
	n.ring.Add(cfg.ID)
	for _, id := range cfg.Seeds {
		if id == cfg.ID || id == "" {
			continue
		}
		if _, ok := n.members[id]; ok {
			continue
		}
		n.members[id] = &member{id: id, state: Alive, lastAlive: now}
		n.ring.Add(id)
	}
	return n, nil
}

// ID returns the replica's name.
func (n *Node) ID() string { return n.cfg.ID }

// Server returns the embedded serving tier.
func (n *Node) Server() *server.Server { return n.srv }

// Estimator returns the replica's estimator: its checkpoint rides every
// gossip round, and received rumors' checkpoints merge into it.
func (n *Node) Estimator() *estimate.Estimator { return n.est }

// ObserveEstimate feeds one invocation outcome to the estimator,
// returning the bucket's drift verdict. The next gossip round carries
// the updated snapshot.
func (n *Node) ObserveEstimate(o estimate.Outcome) monitor.Verdict {
	return n.est.Observe(o)
}

// EvidenceGen returns the node's current evidence generation: the
// estimator's local generation on top of GenBase. It is the
// version-vector entry the next gossip round will publish;
// Fleet.Restart passes it forward as the successor incarnation's
// GenBase.
func (n *Node) EvidenceGen() uint64 {
	return n.cfg.GenBase + n.est.Gen()
}

// Quarantined reports whether this replica holds the provider drifting
// up — some bucket of it Violating with Direction +1, by its own
// observations or by a verdict merged from peer gossip. Downward drift
// (the provider got better) never quarantines.
func (n *Node) Quarantined(provider string) bool {
	return n.est.DriftingUp(provider)
}

// Stats returns a snapshot of the replica's cluster counters.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// Members returns the replica's current membership view, sorted by ID.
func (n *Node) Members() []MemberInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]MemberInfo, 0, len(n.members))
	for _, id := range sortedMemberIDs(n.members) {
		m := n.members[id]
		out = append(out, MemberInfo{ID: m.id, State: m.state, Heartbeat: m.heartbeat})
	}
	return out
}

// MemberState returns this replica's liveness judgment of id (0 if
// unknown).
func (n *Node) MemberState(id string) MemberState {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m, ok := n.members[id]; ok {
		return m.state
	}
	return 0
}

// Owner returns the replica currently owning the request's route key in
// this node's view of the ring.
func (n *Node) Owner(req server.Request) (string, bool) {
	key := RouteKey(req.Scope, req.Service, req.Params)
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ring.Owner(key)
}

// Stop marks the node stopped: it refuses requests and rumors and sends
// nothing. It does not drain the embedded server — a chaos kill is
// abrupt by design; call Server().Drain first for a graceful exit.
func (n *Node) Stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stopped = true
}

// Stopped reports whether Stop was called.
func (n *Node) Stopped() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stopped
}

// Serve routes the request: the ring owner serves it, with at most one
// forwarding hop. If the owner is Dead, unreachable, or this replica
// itself, the request is served locally — under partition every replica
// degrades per its own server's ladder rather than failing the caller.
func (n *Node) Serve(ctx context.Context, req server.Request) socruntime.Answer {
	key := RouteKey(req.Scope, req.Service, req.Params)

	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return unavailableAnswer(n.cfg.ID)
	}
	owner, ok := n.ring.Owner(key)
	if !ok || owner == n.cfg.ID {
		n.stats.ServedLocal++
		n.mu.Unlock()
		return n.srv.Serve(ctx, req)
	}
	if m := n.members[owner]; m == nil || m.state == Dead {
		n.stats.ServedForDead++
		n.mu.Unlock()
		return n.srv.Serve(ctx, req)
	}
	n.mu.Unlock()

	ans, err := n.transport.Forward(ctx, n.cfg.ID, owner, req)
	if err != nil {
		n.mu.Lock()
		n.stats.ForwardFailed++
		n.mu.Unlock()
		return n.srv.Serve(ctx, req)
	}
	n.mu.Lock()
	n.stats.Forwarded++
	n.mu.Unlock()
	n.readRepair(req, ans)
	return ans
}

// readRepair adopts a peer's answer time as the scope's last exact time
// when it is later than this replica's own. When this replica must then
// serve the scope itself during a later partition and sheds a request,
// the answer is Stale as of the owner's last exact answer instead of
// Unavailable.
func (n *Node) readRepair(req server.Request, ans socruntime.Answer) {
	if ans.Kind != socruntime.Exact && ans.Kind != socruntime.Stale {
		return
	}
	if n.srv.RepairLastExact(req.Scope, ans.AsOf) {
		n.mu.Lock()
		n.stats.ReadRepaired++
		n.mu.Unlock()
	}
}

// ServeForwarded serves a request received from a peer. It is terminal:
// the receiver never forwards again, so routing is at most one hop even
// when views of the ring disagree during churn.
func (n *Node) ServeForwarded(ctx context.Context, req server.Request) (socruntime.Answer, error) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return socruntime.Answer{}, fmt.Errorf("%w: %s", ErrStopped, n.cfg.ID)
	}
	n.stats.ServedForwarded++
	n.mu.Unlock()
	return n.srv.Serve(ctx, req), nil
}

// HandleRumor folds one received rumor into the local view: heartbeat
// advances revive and admit members, and the estimator checkpoint merges
// unless the version vector proves it is old news. Merging is a
// semilattice join, so duplicated and reordered rumors are harmless.
func (n *Node) HandleRumor(r Rumor) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stats.RumorsReceived++
	now := n.clock.Now()
	changed := n.applyHeartbeatLocked(r.From, r.Heartbeat, now, true)
	for id, hb := range r.Heartbeats {
		if n.applyHeartbeatLocked(id, hb, now, false) {
			changed = true
		}
	}
	if changed {
		n.rebuildRingLocked()
	}
	skip := dominates(n.vv, r.EvidenceVV)
	if skip {
		n.stats.RumorsSkipped++
	}
	n.mu.Unlock()
	if skip {
		return
	}

	// Merge outside the node lock: MergeCheckpoint takes the
	// estimator's lock and may fire its OnDrift callback, and neither
	// should ever be ordered after node.mu.
	var mergeErr error
	if len(r.Estimates) > 0 {
		mergeErr = n.est.MergeCheckpoint(r.Estimates)
	}
	n.mu.Lock()
	if len(r.Estimates) > 0 {
		if mergeErr != nil {
			// Valid snapshots merged; the rejects stay the sender's
			// problem. The version vector still advances — replaying
			// the same bad snapshot next round would not fix it.
			n.stats.BadEstimates++
		} else {
			n.stats.EstimatesMerged++
		}
	}
	mergeVV(n.vv, r.EvidenceVV)
	n.stats.EvidenceMerged++
	n.mu.Unlock()
}

// applyHeartbeatLocked records a heartbeat. A counter advance proves
// the member was alive more recently than we knew; unknown members join
// Alive. A direct heartbeat — one carried in a rumor authored by the
// member itself rather than relayed — is proof of life even without an
// advance: a restarted incarnation counts from zero, below the peak its
// predecessor gossiped, and would otherwise stay condemned until its
// fresh counter outran a ghost's. Returns true if ring membership
// changed.
func (n *Node) applyHeartbeatLocked(id string, hb uint64, now time.Time, direct bool) bool {
	if id == "" || id == n.cfg.ID {
		return false
	}
	m, ok := n.members[id]
	if !ok {
		n.members[id] = &member{id: id, state: Alive, heartbeat: hb, lastAlive: now}
		return true
	}
	advanced := hb > m.heartbeat
	if advanced {
		m.heartbeat = hb
	}
	if advanced || direct {
		m.lastAlive = now
		if m.state != Alive {
			revived := m.state == Dead
			m.state = Alive
			return revived
		}
	}
	return false
}

// sweepLocked advances the silence ladder: Alive → Suspect → Dead.
// Returns true if any member crossed into or out of the ring.
func (n *Node) sweepLocked(now time.Time) bool {
	changed := false
	for _, m := range n.members {
		if m.id == n.cfg.ID {
			continue
		}
		silence := now.Sub(m.lastAlive)
		switch {
		case silence >= n.cfg.DeadAfter:
			if m.state != Dead {
				m.state = Dead
				changed = true
			}
		case silence >= n.cfg.SuspectAfter:
			if m.state == Alive {
				m.state = Suspect
			}
		}
	}
	return changed
}

func (n *Node) rebuildRingLocked() {
	for _, m := range n.members {
		if m.state == Dead {
			n.ring.Remove(m.id)
		} else {
			n.ring.Add(m.id)
		}
	}
}

// GossipRound runs one push round: advance the local heartbeat, sweep
// the silence ladder, and send the full local view — heartbeats,
// estimator checkpoint, version vector — to Fanout live peers (all of
// them when Fanout is 0).
func (n *Node) GossipRound() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	now := n.clock.Now()
	self := n.members[n.cfg.ID]
	self.heartbeat++
	self.lastAlive = now
	if n.sweepLocked(now) {
		n.rebuildRingLocked()
	}
	n.vv[n.cfg.ID] = n.EvidenceGen()

	// Push targets include Dead-judged members. A Dead judgment is local
	// and possibly wrong — after a symmetric partition both sides condemn
	// each other, and if neither ever pushed to its "dead" peers again
	// the split would outlive the heal. Pushing to a true corpse costs
	// one dropped message; pushing to a wrongly-condemned peer carries
	// the fresh heartbeat that revives it.
	heartbeats := make(map[string]uint64, len(n.members))
	var peers []string
	for id, m := range n.members {
		heartbeats[id] = m.heartbeat
		if id != n.cfg.ID {
			peers = append(peers, id)
		}
	}
	sort.Strings(peers) // map order would leak into count-based fault injection
	vv := make(map[string]uint64, len(n.vv))
	for id, v := range n.vv {
		vv[id] = v
	}
	targets := peers
	if n.cfg.Fanout > 0 && len(peers) > n.cfg.Fanout {
		targets = make([]string, 0, n.cfg.Fanout)
		for _, i := range n.rng.Perm(len(peers))[:n.cfg.Fanout] {
			targets = append(targets, peers[i])
		}
	}
	hb := self.heartbeat
	n.stats.RumorsSent += uint64(len(targets))
	n.mu.Unlock()

	r := Rumor{
		From:       n.cfg.ID,
		Heartbeat:  hb,
		Heartbeats: heartbeats,
		EvidenceVV: vv,
		Estimates:  n.est.Checkpoint(),
	}
	for _, to := range targets {
		n.transport.Gossip(n.cfg.ID, to, r)
	}
}

func unavailableAnswer(id string) socruntime.Answer {
	return socruntime.Answer{
		Kind: socruntime.Unavailable,
		Err:  fmt.Errorf("%w: %s", ErrStopped, id),
	}
}

func sortedMemberIDs(members map[string]*member) []string {
	ids := make([]string, 0, len(members))
	for id := range members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
