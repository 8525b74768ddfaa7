package cluster_test

import (
	"math"
	"testing"
	"time"

	"socrel/internal/cluster"
	"socrel/internal/estimate"
	"socrel/internal/faultinject"
	"socrel/internal/monitor"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
)

// newEstimatorFleet builds a deterministic fleet where every replica
// carries a failure-parameter estimator wired through FleetConfig.
func newEstimatorFleet(t *testing.T, replicas int, net *faultinject.Network, clk socruntime.Clock) *cluster.Fleet {
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
		NewEstimator: func(id string) *estimate.Estimator {
			est, err := estimate.New(estimate.Config{Clock: clk})
			if err != nil {
				t.Fatal(err)
			}
			return est
		},
		Network: net,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	return f
}

// TestEstimateGossipConverges: observations fed to one replica's
// estimator reach every replica within one full-fanout push round, and
// the merged fits agree with the observing replica's.
func TestEstimateGossipConverges(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	f := newEstimatorFleet(t, 3, nil, clk)
	k := estimate.Key{Provider: "prov", Context: "app"}

	n0 := f.Node("replica-0")
	for i := 0; i < 100; i++ {
		n0.ObserveEstimate(estimate.Outcome{
			Provider: k.Provider, Context: k.Context,
			Failed: i%10 == 0, Exposure: 1,
		})
	}
	want, ok := n0.Estimator().Estimate(k)
	if !ok {
		t.Fatal("observing replica has no fit")
	}

	if _, ok := f.Node("replica-2").Estimator().Estimate(k); ok {
		t.Fatal("estimate leaked before any gossip")
	}
	f.GossipRound()
	for _, n := range f.Nodes() {
		got, ok := n.Estimator().Estimate(k)
		if !ok {
			t.Fatalf("%s has no fit after gossip", n.ID())
		}
		if math.Abs(got.Rate-want.Rate) > 1e-12 || got.Observations != want.Observations {
			t.Fatalf("%s fit %+v diverges from observer's %+v", n.ID(), got, want)
		}
	}
	if st := f.Node("replica-1").Stats(); st.EstimatesMerged == 0 {
		t.Fatalf("no estimate merges counted: %+v", st)
	}
}

// TestEstimateGossipIdempotent: redelivered rumors are version-vector
// skips; redundant merges never inflate the evidence.
func TestEstimateGossipIdempotent(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	f := newEstimatorFleet(t, 3, nil, clk)
	k := estimate.Key{Provider: "prov", Context: "app"}
	n0 := f.Node("replica-0")
	for i := 0; i < 50; i++ {
		n0.ObserveEstimate(estimate.Outcome{Provider: k.Provider, Context: k.Context, Failed: i%5 == 0})
	}
	f.GossipRound()
	n2 := f.Node("replica-2")
	before, _ := n2.Estimator().Estimate(k)
	merged := n2.Stats().EstimatesMerged
	for i := 0; i < 3; i++ {
		f.GossipRound()
	}
	after, _ := n2.Estimator().Estimate(k)
	if after != before {
		t.Fatalf("estimate changed without new observations: %+v -> %+v", before, after)
	}
	if got := n2.Stats().EstimatesMerged; got != merged {
		t.Fatalf("quiescent rounds still merged estimates: %d -> %d", merged, got)
	}
}

// TestEstimateDriftVerdictRidesGossip: a drift verdict reached on the
// observing replica is adopted by replicas that saw none of the traffic.
func TestEstimateDriftVerdictRidesGossip(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	f := newEstimatorFleet(t, 3, nil, clk)
	k := estimate.Key{Provider: "prov", Context: "app"}
	n0 := f.Node("replica-0")
	if err := n0.Estimator().SetBound(k, 0.05); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		v, _ := n0.Estimator().Verdict(k)
		if v == monitor.Violating {
			break
		}
		n0.ObserveEstimate(estimate.Outcome{Provider: k.Provider, Context: k.Context, Failed: i%3 == 0})
	}
	if v, dir := n0.Estimator().Verdict(k); dir != 1 {
		t.Fatalf("observer never detected upward drift: verdict %v dir %d", v, dir)
	}
	f.GossipRound()
	for _, n := range f.Nodes() {
		if _, dir := n.Estimator().Verdict(k); dir != 1 {
			t.Fatalf("%s did not adopt the drift verdict via gossip", n.ID())
		}
	}
}

// TestServerOutcomesFeedEstimator: the fleet's OnOutcome chaining means
// plain served requests populate the estimator without any extra wiring.
func TestServerOutcomesFeedEstimator(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	f := newEstimatorFleet(t, 1, nil, clk)
	n := f.Node("replica-0")
	for i := 0; i < 10; i++ {
		ans := n.Serve(nil, server.Request{Service: "app", Scope: "m"})
		if ans.Kind != socruntime.Exact {
			t.Fatalf("serve degraded: %+v", ans)
		}
	}
	k := estimate.Key{Provider: "app", Context: "m"}
	est, ok := n.Estimator().Estimate(k)
	if !ok {
		t.Fatal("served traffic did not reach the estimator")
	}
	if est.Observations != 10 || est.Failures != 0 {
		t.Fatalf("estimator saw %d obs / %d failures, want 10 / 0", est.Observations, est.Failures)
	}
}
