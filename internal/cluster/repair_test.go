package cluster_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"socrel/internal/cluster"
	"socrel/internal/faultinject"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
)

// switchEval answers a per-replica closed form, p + x/1000 at point
// x, until fail is flipped, then errors: the switch that forces the
// serving tier down its ladder. It serves inline, so a shed request
// whose scope has an exact answer on record is answered Stale.
type switchEval struct {
	p    float64
	fail *atomic.Bool
}

func (e switchEval) PfailCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	if e.fail.Load() {
		return 0, errors.New("evaluator down")
	}
	return e.p + params[0]/1000, nil
}

func (switchEval) Inline(context.Context, string) bool { return true }

// peerOwnedRequest finds a parameter point at or after from whose ring
// owner (in entry's view) is a peer, so Serve must forward.
func peerOwnedRequest(t *testing.T, entry *cluster.Node, from int) (server.Request, string) {
	t.Helper()
	for i := from; i < from+256; i++ {
		req := server.Request{Scope: "model", Params: []float64{float64(i)}}
		if owner, ok := entry.Owner(req); ok && owner != entry.ID() {
			return req, owner
		}
	}
	t.Fatal("no peer-owned parameter point found in 256 tries")
	return server.Request{}, ""
}

// TestReadRepairAfterHeal: a replica that has only ever forwarded holds
// no exact answer of its own, so while partitioned a shed is
// Unavailable. After the heal, one forwarded request adopts the owner's
// answer time as the scope's last exact time; partitioned again, the
// same replica answers a shed at a point it never saw Stale: its own
// closed form at that point, as of the owner's answer. A failure of the
// evaluation itself stays Unavailable.
func TestReadRepairAfterHeal(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	net := faultinject.NewNetwork(faultinject.NetConfig{Seed: 11})
	fail := &atomic.Bool{}
	pfail := map[string]float64{"replica-0": 0.1, "replica-1": 0.2, "replica-2": 0.3}
	f, err := cluster.NewFleet(cluster.FleetConfig{
		Replicas: 3,
		Node: cluster.NodeConfig{
			GossipInterval: time.Second,
			SuspectAfter:   3 * time.Second,
			DeadAfter:      9 * time.Second,
			Clock:          clk,
			Seed:           42,
		},
		NewEvaluator: func(id string) server.Evaluator { return switchEval{p: pfail[id], fail: fail} },
		Network:      net,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)

	entry := f.Node("replica-0")
	req, owner := peerOwnedRequest(t, entry, 0)
	ctx := context.Background()
	shed := func(r server.Request) socruntime.Answer {
		t.Helper()
		r.Timeout = time.Nanosecond
		ans := entry.Serve(ctx, r)
		if !errors.Is(ans.Err, server.ErrDeadlineBudget) {
			t.Fatalf("1ns budget: %+v, want a deadline shed", ans)
		}
		return ans
	}

	// Partitioned before any exact answer: the forward fails, the origin
	// sheds the 1ns budget and has no record to answer Stale from.
	net.Partition([]string{"replica-0"}, []string{"replica-1", "replica-2"})
	if ans := shed(req); ans.Kind != socruntime.Unavailable {
		t.Fatalf("partitioned shed without a record = %+v, want Unavailable", ans)
	}
	if got := entry.Stats().ReadRepaired; got != 0 {
		t.Fatalf("ReadRepaired = %d across a partition, want 0", got)
	}

	// Heal: the forward returns the owner's Exact, and the origin
	// adopts its time.
	clk.Advance(time.Second)
	net.Heal()
	ans := entry.Serve(ctx, req)
	want := pfail[owner] + req.Params[0]/1000
	if ans.Kind != socruntime.Exact || ans.Pfail != want {
		t.Fatalf("healed serve = %v p=%v, want forwarded Exact %v", ans.Kind, ans.Pfail, want)
	}
	ownerAt := ans.AsOf
	if got := entry.Stats().ReadRepaired; got != 1 {
		t.Fatalf("ReadRepaired = %d after healed forward, want 1", got)
	}
	if got := entry.Server().Stats().Repaired; got != 1 {
		t.Fatalf("server Repaired = %d after healed forward, want 1", got)
	}

	// Repair is freshness-gated: replaying the same answer changes nothing.
	_ = entry.Serve(ctx, req)
	if got := entry.Stats().ReadRepaired; got != 1 {
		t.Fatalf("ReadRepaired = %d after equal-freshness replay, want still 1", got)
	}

	// Partitioned again, later, at a new point: Stale from the origin's
	// own closed form, dated by the owner's answer.
	clk.Advance(5 * time.Second)
	net.Partition([]string{"replica-0"}, []string{"replica-1", "replica-2"})
	fresh, _ := peerOwnedRequest(t, entry, int(req.Params[0])+1)
	ans = shed(fresh)
	if want := pfail["replica-0"] + fresh.Params[0]/1000; ans.Kind != socruntime.Stale || ans.Pfail != want {
		t.Fatalf("partitioned shed after repair = %+v, want Stale %v", ans, want)
	}
	if !ans.AsOf.Equal(ownerAt) || ans.Age != 5*time.Second {
		t.Fatalf("stale AsOf %v Age %v, want the owner's %v and 5s", ans.AsOf, ans.Age, ownerAt)
	}

	// The evaluator dies and the owner with it: a failed evaluation is
	// not the server's refusal, so the origin answers Unavailable.
	fail.Store(true)
	f.Kill(owner)
	ans = entry.Serve(ctx, req)
	if ans.Kind != socruntime.Unavailable || !strings.Contains(ans.Err.Error(), "evaluator down") {
		t.Fatalf("degraded serve = %+v, want Unavailable carrying the evaluator's error", ans)
	}
}

// TestFleetRestart: a killed replica restarted under its original ID
// rejoins the ring with fresh state, peers re-admit it on the next
// gossip exchange, and Restart refuses live or unknown ids.
func TestFleetRestart(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	f := newTestFleet(t, 3, nil, clk)

	if _, err := f.Restart("replica-1"); err == nil {
		t.Fatal("Restart of a live replica did not error")
	}
	if _, err := f.Restart("replica-9"); err == nil {
		t.Fatal("Restart of an unknown replica did not error")
	}

	// Let the doomed replica gossip long enough that its heartbeat
	// counter is well above anything its next incarnation will reach
	// quickly — the restart must revive via direct proof of life, not by
	// outrunning the ghost's counter.
	for i := 0; i < 15; i++ {
		clk.Advance(time.Second)
		f.GossipRound()
	}
	if !f.Kill("replica-1") {
		t.Fatal("Kill failed")
	}
	// Survivors condemn the corpse.
	for i := 0; i < 10; i++ {
		clk.Advance(time.Second)
		f.GossipRound()
	}
	if got := f.Node("replica-0").MemberState("replica-1"); got != cluster.Dead {
		t.Fatalf("replica-0 judges killed peer %v, want Dead", got)
	}

	n, err := f.Restart("replica-1")
	if err != nil {
		t.Fatal(err)
	}
	if n == f.Node("replica-0") || f.Node("replica-1") != n {
		t.Fatal("Restart did not install the new node under the old ID")
	}
	if len(f.Live()) != 3 {
		t.Fatalf("live = %d after restart, want 3", len(f.Live()))
	}

	// The restarted node's first rounds re-admit it everywhere.
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		f.GossipRound()
	}
	for _, id := range []string{"replica-0", "replica-2"} {
		if got := f.Node(id).MemberState("replica-1"); got != cluster.Alive {
			t.Fatalf("%s judges restarted peer %v, want Alive", id, got)
		}
	}
	if got := n.MemberState("replica-0"); got != cluster.Alive {
		t.Fatalf("restarted node judges replica-0 %v, want Alive", got)
	}

	// And it serves.
	ans := n.Serve(context.Background(), server.Request{Scope: "model", Params: []float64{1}})
	if ans.Kind != socruntime.Exact {
		t.Fatalf("restarted node serve = %v, want Exact", ans.Kind)
	}
}
