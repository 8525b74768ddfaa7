package cluster_test

import (
	"fmt"
	"testing"
	"time"

	"socrel/internal/cluster"
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
				Server:       server.Config{Hedge: server.HedgeConfig{Disabled: true}},
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
