package cluster_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"socrel/internal/assembly"
	"socrel/internal/cluster"
	"socrel/internal/core"
	"socrel/internal/estimate"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
)

// BenchmarkGossipRound times one Fleet.GossipRound on a 3-replica fleet
// whose estimators hold 1 or 64 converged buckets. Each op first feeds
// one fresh outcome to one replica (rotating), so every round carries
// news: the sender's checkpoint is built and shipped, and the two
// receivers merge it rather than dominance-skipping it. That is the
// steady state of a serving fleet whose replicas see traffic between
// rounds.
func BenchmarkGossipRound(b *testing.B) {
	for _, buckets := range []int{1, 64} {
		b.Run(fmt.Sprintf("buckets=%d", buckets), func(b *testing.B) {
			clk := socruntime.NewFakeClock(time.Unix(0, 0))
			f, err := cluster.NewFleet(cluster.FleetConfig{
				Replicas: 3,
				Node: cluster.NodeConfig{
					GossipInterval: time.Second,
					Clock:          clk,
					Seed:           1,
				},
				NewEvaluator: func(string) server.Evaluator { return constEval{p: 0.25} },
				NewEstimator: func(string) *estimate.Estimator {
					est, err := estimate.New(estimate.Config{Clock: clk})
					if err != nil {
						b.Fatal(err)
					}
					return est
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Stop()
			nodes := f.Nodes()
			observe := func(i int) {
				nodes[i%len(nodes)].ObserveEstimate(estimate.Outcome{
					Provider: fmt.Sprintf("prov-%d", i%buckets),
					Context:  "app",
					Failed:   i%7 == 0,
				})
			}
			for i := 0; i < 16*buckets; i++ {
				observe(i)
			}
			f.GossipRound()
			f.GossipRound()

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				observe(i)
				f.GossipRound()
			}
		})
	}
}

// BenchmarkFleetServe times one single-point request into a 3-replica
// fleet serving the paper's remote assembly compiled to closed forms,
// shaped like relfleet: real clock, every outcome fed
// to the replica's estimator, no background gossip. "local" enters at
// the replica that owns each point and "forwarded" at one that does
// not, so it adds one hop over LocalTransport and a read-repair;
// "round-robin" is Fleet.Serve itself, which picks the entry replica
// (about 2/3 of its requests are forwarded).
func BenchmarkFleetServe(b *testing.B) {
	asm, err := assembly.RemoteAssembly(assembly.DefaultPaperParams())
	if err != nil {
		b.Fatal(err)
	}
	ca, err := core.CompileParametric(asm, core.Options{}, core.ParametricOptions{}, "search")
	if err != nil {
		b.Fatal(err)
	}
	f, err := cluster.NewFleet(cluster.FleetConfig{
		Replicas:     3,
		Server:       server.Config{Service: "search"},
		NewEvaluator: func(string) server.Evaluator { return ca },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Stop()
	entry := f.Nodes()[0]
	// 32 points owned by the entry replica and 32 owned by a peer.
	var local, forwarded, mixed []server.Request
	for list := 1024.0; len(local) < 32 || len(forwarded) < 32; list += 64 {
		req := server.Request{Service: "search", Params: []float64{1, list, 1}}
		owner, _ := entry.Owner(req)
		if owner == entry.ID() {
			if len(local) < 32 {
				local = append(local, req)
			}
		} else if len(forwarded) < 32 {
			forwarded = append(forwarded, req)
		}
	}
	mixed = append(append(mixed, local...), forwarded...)
	ctx := context.Background()
	run := func(b *testing.B, reqs []server.Request, serve func(context.Context, server.Request) socruntime.Answer) {
		for _, r := range reqs { // warm every replica's session pool
			serve(ctx, r)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ans := serve(ctx, reqs[i%len(reqs)]); ans.Err != nil {
				b.Fatal(ans.Err)
			}
		}
	}
	b.Run("local", func(b *testing.B) { run(b, local, entry.Serve) })
	b.Run("forwarded", func(b *testing.B) { run(b, forwarded, entry.Serve) })
	b.Run("round-robin", func(b *testing.B) { run(b, mixed, f.Serve) })
}
