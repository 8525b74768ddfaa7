package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"socrel/internal/cluster"
	"socrel/internal/estimate"
	"socrel/internal/faultinject"
	"socrel/internal/monitor"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
)

// constEval answers every evaluation with a fixed pfail.
type constEval struct{ p float64 }

func (e constEval) PfailCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	return e.p, nil
}

// newTestFleet builds a deterministic fleet on a fake clock: explicit
// gossip timing, optional fault-injected network.
func newTestFleet(t *testing.T, replicas int, net *faultinject.Network, clk socruntime.Clock) *cluster.Fleet {
	t.Helper()
	f, err := cluster.NewFleet(cluster.FleetConfig{
		Replicas: replicas,
		Node: cluster.NodeConfig{
			GossipInterval: time.Second,
			SuspectAfter:   3 * time.Second,
			DeadAfter:      9 * time.Second,
			Clock:          clk,
			Seed:           42,
		},
		NewEvaluator: func(id string) server.Evaluator { return constEval{p: 0.25} },
		Network:      net,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	return f
}

// watchAll binds the provider's failure rate on every replica's
// estimator — the rate the live model assumes, which the bucket's drift
// test checks observations against.
func watchAll(t *testing.T, f *cluster.Fleet, provider string, rate float64) {
	t.Helper()
	for _, n := range f.Nodes() {
		if err := n.Estimator().SetBound(estimate.Key{Provider: provider}, rate); err != nil {
			t.Fatal(err)
		}
	}
}

// driveToViolating feeds one replica a constant outcome stream for the
// provider until its estimator's drift test trips (or 200 outcomes).
func driveToViolating(n *cluster.Node, provider string, failed bool) {
	k := estimate.Key{Provider: provider}
	for i := 0; i < 200; i++ {
		if v, _ := n.Estimator().Verdict(k); v == monitor.Violating {
			return
		}
		n.ObserveEstimate(estimate.Outcome{Provider: provider, Failed: failed})
	}
}

// tripNode feeds one replica failures until its estimator's drift test
// for the provider trips.
func tripNode(t *testing.T, n *cluster.Node, provider string) {
	t.Helper()
	driveToViolating(n, provider, true)
	if !n.Quarantined(provider) {
		t.Fatalf("%s never quarantined %s under a pure-failure stream", n.ID(), provider)
	}
}

// TestFleetQuarantineConverges: a provider whose failure rate drifts up
// on one replica is quarantined fleet-wide within bounded gossip rounds
// — here a single full-fanout push round.
func TestFleetQuarantineConverges(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	f := newTestFleet(t, 3, nil, clk)
	watchAll(t, f, "prov", 0.01)
	tripNode(t, f.Node("replica-0"), "prov")

	if f.Node("replica-2").Quarantined("prov") {
		t.Fatal("quarantine leaked before any gossip")
	}
	f.GossipRound()
	if !f.Quarantined("prov") {
		t.Fatal("quarantine did not converge after one full-fanout round")
	}
}

// TestDownwardDriftNeverQuarantines: a provider that got *better* than
// its bound trips its drift test downward. The verdict gossips like any
// other, but no replica reads it as a quarantine.
func TestDownwardDriftNeverQuarantines(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	f := newTestFleet(t, 3, nil, clk)
	watchAll(t, f, "prov", 0.5)
	n0 := f.Node("replica-0")
	k := estimate.Key{Provider: "prov"}
	driveToViolating(n0, "prov", false)
	if v, dir := n0.Estimator().Verdict(k); v != monitor.Violating || dir != -1 {
		t.Fatalf("a pure-success stream gave verdict %v dir %d, want violating -1", v, dir)
	}
	f.GossipRound()
	for _, n := range f.Nodes() {
		if v, dir := n.Estimator().Verdict(k); v != monitor.Violating || dir != -1 {
			t.Fatalf("%s did not adopt the downward verdict: %v dir %d", n.ID(), v, dir)
		}
		if n.Quarantined("prov") {
			t.Fatalf("%s quarantined a provider that drifted down", n.ID())
		}
	}
}

// TestGossipIdempotentRedelivery: once converged, further rounds are
// version-vector skips — evidence totals never double-count.
func TestGossipIdempotentRedelivery(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	f := newTestFleet(t, 3, nil, clk)
	watchAll(t, f, "prov", 0.01)
	tripNode(t, f.Node("replica-0"), "prov")
	f.GossipRound()

	key := estimate.Key{Provider: "prov"}.String()
	totals := make(map[string]int)
	for _, n := range f.Nodes() {
		totals[n.ID()] = n.Estimator().Checkpoint()[key].Total
	}
	for i := 0; i < 3; i++ {
		f.GossipRound()
	}
	for _, n := range f.Nodes() {
		if got := n.Estimator().Checkpoint()[key].Total; got != totals[n.ID()] {
			t.Fatalf("%s evidence total changed across re-deliveries: %d -> %d", n.ID(), totals[n.ID()], got)
		}
	}
	skipped := uint64(0)
	for _, n := range f.Nodes() {
		skipped += n.Stats().RumorsSkipped
	}
	if skipped == 0 {
		t.Fatal("no rumor was version-vector-skipped after convergence")
	}
}

// TestMembershipLifecycle: a killed replica slides Alive → Suspect →
// Dead on the survivors' clocks, keeps its ring keys while Suspect, and
// is evicted from the ring once Dead.
func TestMembershipLifecycle(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	f := newTestFleet(t, 3, nil, clk)
	f.GossipRound() // everyone exchanges first heartbeats
	if !f.Kill("replica-2") {
		t.Fatal("Kill refused")
	}

	obs := f.Node("replica-0")
	step := func() {
		clk.Advance(time.Second)
		f.GossipRound()
	}
	step()
	if got := obs.MemberState("replica-2"); got != cluster.Alive {
		t.Fatalf("after 1s silence state = %v, want alive", got)
	}
	for obs.MemberState("replica-2") == cluster.Alive {
		if clk.Now().After(time.Unix(8, 0)) {
			t.Fatal("killed replica never turned suspect")
		}
		step()
	}
	if got := obs.MemberState("replica-2"); got != cluster.Suspect {
		t.Fatalf("state after suspect window = %v, want suspect", got)
	}
	ownsWhileSuspect := ownedKeys(obs, "replica-2")
	if ownsWhileSuspect == 0 {
		t.Fatal("suspect replica lost its ring keys prematurely")
	}
	for obs.MemberState("replica-2") != cluster.Dead {
		if clk.Now().After(time.Unix(30, 0)) {
			t.Fatal("killed replica never turned dead")
		}
		step()
	}
	if got := ownedKeys(obs, "replica-2"); got != 0 {
		t.Fatalf("dead replica still owns %d keys", got)
	}
	for _, id := range []string{"replica-0", "replica-1"} {
		if got := f.Node(id).MemberState("replica-2"); got != cluster.Dead {
			t.Fatalf("%s sees the killed replica as %v, want dead", id, got)
		}
	}
}

// ownedKeys counts how many of a key sample the observer's ring assigns
// to the given replica.
func ownedKeys(n *cluster.Node, owner string) int {
	count := 0
	for i := 0; i < 200; i++ {
		req := server.Request{Scope: fmt.Sprintf("scope-%d", i), Params: []float64{float64(i)}}
		if o, ok := n.Owner(req); ok && o == owner {
			count++
		}
	}
	return count
}

// TestForwardOneHop: a request entering at a non-owner is handed to the
// owner exactly once, and the owner serves it locally.
func TestForwardOneHop(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	f := newTestFleet(t, 3, nil, clk)
	entry := f.Node("replica-0")

	var req server.Request
	ownerID := ""
	for i := 0; i < 1000; i++ {
		req = server.Request{Scope: fmt.Sprintf("scope-%d", i), Params: []float64{0.5}}
		if o, ok := entry.Owner(req); ok && o != entry.ID() {
			ownerID = o
			break
		}
	}
	if ownerID == "" {
		t.Fatal("no scope routed away from the entry replica")
	}

	ans := entry.Serve(context.Background(), req)
	if !ans.IsExact() || ans.Pfail != 0.25 {
		t.Fatalf("forwarded answer = %+v, want exact 0.25", ans)
	}
	if got := entry.Stats().Forwarded; got != 1 {
		t.Fatalf("entry Forwarded = %d, want 1", got)
	}
	if got := f.Node(ownerID).Stats().ServedForwarded; got != 1 {
		t.Fatalf("owner ServedForwarded = %d, want 1", got)
	}
}

// TestForwardFallsBackWhenOwnerUnreachable: a killed owner that is not
// yet marked Dead fails the forward, and the entry replica serves the
// request itself — the caller still gets an exact answer.
func TestForwardFallsBackWhenOwnerUnreachable(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	f := newTestFleet(t, 3, nil, clk)
	entry := f.Node("replica-0")

	var req server.Request
	ownerID := ""
	for i := 0; i < 1000; i++ {
		req = server.Request{Scope: fmt.Sprintf("scope-%d", i), Params: []float64{0.5}}
		if o, ok := entry.Owner(req); ok && o != entry.ID() {
			ownerID = o
			break
		}
	}
	f.Kill(ownerID) // abrupt: entry still believes the owner is Alive

	ans := entry.Serve(context.Background(), req)
	if !ans.IsExact() || ans.Pfail != 0.25 {
		t.Fatalf("fallback answer = %+v, want exact 0.25", ans)
	}
	st := entry.Stats()
	if st.ForwardFailed != 1 {
		t.Fatalf("ForwardFailed = %d, want 1", st.ForwardFailed)
	}

	// Once the owner is marked Dead, its keys rebalance to a survivor:
	// the entry either owns the key now or forwards to a live peer, and
	// never burns another failed hop on the corpse.
	for entry.MemberState(ownerID) != cluster.Dead {
		clk.Advance(time.Second)
		f.GossipRound()
		if clk.Now().After(time.Unix(60, 0)) {
			t.Fatal("owner never marked dead")
		}
	}
	if newOwner, ok := entry.Owner(req); !ok || newOwner == ownerID {
		t.Fatalf("dead replica %s still owns the key", ownerID)
	}
	if ans := entry.Serve(context.Background(), req); !ans.IsExact() {
		t.Fatalf("post-death answer = %+v, want exact", ans)
	}
	if st = entry.Stats(); st.ForwardFailed != 1 {
		t.Fatalf("entry kept forwarding to a dead owner: ForwardFailed = %d", st.ForwardFailed)
	}
}

// TestPartitionBlocksThenHealsConvergence: evidence tripped on one side
// of a partition must not leak across it; after the heal, one gossip
// round converges the whole fleet.
func TestPartitionBlocksThenHealsConvergence(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	net := faultinject.NewNetwork(faultinject.NetConfig{Seed: 7})
	f := newTestFleet(t, 3, net, clk)
	watchAll(t, f, "prov", 0.01)

	net.Partition([]string{"replica-0", "replica-1"})
	tripNode(t, f.Node("replica-0"), "prov")

	for i := 0; i < 3; i++ {
		f.GossipRound()
	}
	if !f.Node("replica-1").Quarantined("prov") {
		t.Fatal("quarantine did not spread within the majority side")
	}
	if f.Node("replica-2").Quarantined("prov") {
		t.Fatal("quarantine leaked across the partition")
	}

	net.Heal()
	f.GossipRound()
	if !f.Quarantined("prov") {
		t.Fatal("fleet did not converge after heal within one round")
	}
}

// TestAddReplicaJoins: a joining replica is admitted by its first gossip
// round and starts owning keys.
func TestAddReplicaJoins(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	f := newTestFleet(t, 3, nil, clk)
	f.GossipRound()

	joined, err := f.AddReplica()
	if err != nil {
		t.Fatal(err)
	}
	if joined.ID() != "replica-3" {
		t.Fatalf("joined as %s, want replica-3", joined.ID())
	}
	f.GossipRound()
	for _, id := range []string{"replica-0", "replica-1", "replica-2"} {
		if got := f.Node(id).MemberState("replica-3"); got != cluster.Alive {
			t.Fatalf("%s sees the joiner as %v, want alive", id, got)
		}
	}
	if got := ownedKeys(f.Node("replica-0"), "replica-3"); got == 0 {
		t.Fatal("joiner owns no keys in a peer's ring")
	}
}

// TestFleetServeWithNoLiveReplicas: total loss yields a tagged
// Unavailable answer with an error, never a silent zero.
func TestFleetServeWithNoLiveReplicas(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	f := newTestFleet(t, 2, nil, clk)
	f.Kill("replica-0")
	f.Kill("replica-1")
	ans := f.Serve(context.Background(), server.Request{})
	if ans.Kind != socruntime.Unavailable || ans.Err == nil {
		t.Fatalf("answer from a dead fleet = %+v, want Unavailable with error", ans)
	}
	if !errors.Is(ans.Err, cluster.ErrStopped) {
		t.Fatalf("error %v does not wrap ErrStopped", ans.Err)
	}
}
