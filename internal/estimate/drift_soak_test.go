package estimate_test

// The headline robustness soak for the estimation loop: a fleet whose
// bound failure parameter silently drifts away from reality must notice,
// re-predict, and converge — fleet-wide, through a lossy gossip fabric,
// with every clock fake and no real sleeps.
//
// One replica serves all the traffic for a CPU-law provider whose TRUE
// failure rate ramps from the bound 0.05 up to 0.2 mid-soak (a
// faultinject.Ramp profile drives the sampler). The other replicas see
// the evidence only through estimator snapshots riding gossip, over a
// network that drops and duplicates rumors. Each replica runs its own
// Supervisor (the live model) and Reactor (the acting half of the loop).
// Invariants, checked under -race:
//
//   - during the healthy warmup nobody re-predicts and every replica
//     serves the seed prediction 1-exp(-0.05);
//   - after the ramp, every replica — including the two that observed
//     nothing locally — re-predicts within a bounded number of gossip
//     rounds;
//   - the true rate lies inside every replica's confidence interval, and
//     each replica's re-bound rate is within a factor the SPRT's
//     indifference region permits;
//   - each supervisor's served prediction equals 1-exp(-rate) for its
//     re-bound rate and lies inside the CI band mapped through the
//     failure law — predictions track reality to within the estimator's
//     own stated uncertainty;
//   - replicas that never observed traffic converged via merges, and no
//     goroutines leak.

import (
	"context"
	"math"
	gorun "runtime"
	"testing"
	"time"

	"socrel/internal/assembly"
	"socrel/internal/cluster"
	"socrel/internal/core"
	"socrel/internal/estimate"
	"socrel/internal/expr"
	"socrel/internal/faultinject"
	"socrel/internal/model"
	"socrel/internal/registry"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
)

// buildDriftAssembly is the estimation fixture: an "app" composite with
// one open role "worker" and a single CPU candidate whose failure law is
// 1 - exp(-lambda * N / s). With speed 1 and N = 1 every invocation
// carries exposure exactly 1, so Pfail(app) == 1 - exp(-lambda) and the
// estimator's per-exposure rate IS the model's lambda.
func buildDriftAssembly(t *testing.T, lam float64) (*assembly.Assembly, []registry.Candidate) {
	t.Helper()
	asm := assembly.New("drift-soak")
	asm.MustAddService(model.NewCPU("cpu1", 1, lam))
	app := model.NewComposite("app", nil, nil)
	st, err := app.Flow().AddState("work", model.AND, model.NoSharing)
	if err != nil {
		t.Fatal(err)
	}
	st.AddRequest(model.Request{Role: "worker", Params: []expr.Expr{expr.Num(1)}})
	if err := app.Flow().AddTransitionP(model.StartState, "work", 1); err != nil {
		t.Fatal(err)
	}
	if err := app.Flow().AddTransitionP("work", model.EndState, 1); err != nil {
		t.Fatal(err)
	}
	asm.MustAddService(app)
	return asm, []registry.Candidate{{Provider: "cpu1"}}
}

// driftEval is the replica server evaluator; the soak drives the
// estimators directly, so a constant is all the serving tier needs.
type driftEval struct{ p float64 }

func (e driftEval) PfailCtx(context.Context, string, ...float64) (float64, error) {
	return e.p, nil
}

func TestDriftChaosSoak(t *testing.T) {
	const (
		replicas = 3
		lam0     = 0.05 // bound rate, live in every replica's model
		lamTrue  = 0.2  // where the true rate ramps to
		perRound = 20   // observations replica-0 serves per gossip round
	)
	warmRounds, rampRounds := 20, 15
	settleRounds, maxRounds := 10, 200
	if testing.Short() {
		warmRounds = 10
	}
	before := gorun.NumGoroutine()
	ctx := context.Background()

	t0 := time.Unix(0, 0)
	clk := socruntime.NewFakeClock(t0)
	truth := faultinject.Ramp{
		Start: t0.Add(time.Duration(warmRounds) * time.Second),
		Over:  time.Duration(rampRounds) * time.Second,
		From:  lam0,
		To:    lamTrue,
	}
	sampler := faultinject.NewSampler(truth, 1234)

	f, err := cluster.NewFleet(cluster.FleetConfig{
		Replicas: replicas,
		Node: cluster.NodeConfig{
			GossipInterval: time.Second,
			SuspectAfter:   5 * time.Second,
			DeadAfter:      15 * time.Second,
			Clock:          clk,
			Seed:           3,
		},
		Server:       server.Config{Service: "app"},
		NewEvaluator: func(id string) server.Evaluator { return driftEval{p: 1 - math.Exp(-lam0)} },
		NewEstimator: func(id string) *estimate.Estimator {
			est, err := estimate.New(estimate.Config{Window: 128, Clock: clk})
			if err != nil {
				t.Fatal(err)
			}
			return est
		},
		Network: faultinject.NewNetwork(faultinject.NetConfig{Seed: 7, Drop: 0.05, Duplicate: 0.05, Delay: 0.10}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	key := estimate.Key{Provider: "cpu1", Context: "app"}
	type replica struct {
		node *cluster.Node
		sup  *socruntime.Supervisor
		re   *estimate.Reactor
	}
	var reps []*replica
	for _, node := range f.Nodes() {
		asm, cands := buildDriftAssembly(t, lam0)
		sup, err := socruntime.NewSupervisor(ctx, socruntime.SupervisorConfig{Clock: clk},
			asm, "app", "worker", cands, core.Options{}, "app")
		if err != nil {
			t.Fatal(err)
		}
		re, err := estimate.NewReactor(estimate.ReactorConfig{
			Estimator:       node.Estimator(),
			Repredictor:     sup,
			MinObservations: 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := re.Bind(key, "lambda", lam0); err != nil {
			t.Fatal(err)
		}
		reps = append(reps, &replica{node: node, sup: sup, re: re})
	}

	drive := func() {
		now := clk.Now()
		for j := 0; j < perRound; j++ {
			reps[0].node.ObserveEstimate(estimate.Outcome{
				Provider: "cpu1",
				Context:  "app",
				Failed:   sampler.Failed(now, 1),
				Exposure: 1,
				Latency:  time.Millisecond,
			})
		}
	}
	step := func(round int) {
		for _, r := range reps {
			if _, err := r.re.Step(ctx); err != nil {
				t.Fatalf("round %d: reactor step on %s: %v", round, r.node.ID(), err)
			}
		}
	}

	// Phase 1 — healthy warmup at exactly the bound rate: the loop must
	// hold still, and every replica serves the seed prediction.
	round := 0
	for ; round < warmRounds; round++ {
		drive()
		f.GossipRound()
		step(round)
		clk.Advance(time.Second)
	}
	for _, r := range reps {
		if st := r.re.Stats(); st.Repredicted != 0 {
			t.Fatalf("%s re-predicted during the healthy warmup: %+v", r.node.ID(), st)
		}
		if got, want := 1-r.sup.Predicted(), 1-math.Exp(-lam0); math.Abs(got-want) > 1e-12 {
			t.Fatalf("%s warmup Pfail %g, want %g", r.node.ID(), got, want)
		}
	}

	// Phase 2 — the true rate ramps to 4x the bound while only replica-0
	// observes traffic. Keep the rounds coming until every replica has
	// re-predicted AND every replica's served prediction sits inside its
	// own CI band (an early mid-ramp rebind lands low; the re-armed SPRT
	// then walks the bound up to the post-ramp rate over later rounds).
	inBand := func(r *replica) bool {
		est, ok := r.node.Estimator().Estimate(key)
		if !ok {
			return false
		}
		p := 1 - r.sup.Predicted()
		lo, hi := 1-math.Exp(-est.Lo), 1-math.Exp(-est.Hi)
		return p >= lo-1e-9 && p <= hi+1e-9
	}
	doneRound, convRound := -1, -1
	for ; round < maxRounds; round++ {
		drive()
		f.GossipRound()
		step(round)
		clk.Advance(time.Second)
		if doneRound < 0 {
			all := true
			for _, r := range reps {
				if r.re.Stats().Repredicted == 0 {
					all = false
				}
			}
			if all {
				doneRound = round
			}
		} else if round >= doneRound+settleRounds {
			all := true
			for _, r := range reps {
				if !inBand(r) {
					all = false
				}
			}
			if all {
				convRound = round
				break
			}
		}
	}
	if doneRound < 0 || convRound < 0 {
		for _, r := range reps {
			t.Logf("%s rate=%g reactor %+v estimator %+v",
				r.node.ID(), r.re.Rate(key), r.re.Stats(), r.node.Estimator().Stats())
		}
		t.Fatalf("fleet never converged within %d rounds (all re-predicted at round %d)", maxRounds, doneRound)
	}
	// Bounded detection: the whole fleet must close the loop within 40
	// rounds (800 observations) of the ramp completing.
	if lag := doneRound - (warmRounds + rampRounds); lag > 40 {
		t.Fatalf("fleet took %d post-ramp rounds to re-predict everywhere, want <= 40", lag)
	}

	// Phase 3 — convergence: predictions track reality to within the
	// estimator's own stated uncertainty, on every replica.
	for _, r := range reps {
		id := r.node.ID()
		est, ok := r.node.Estimator().Estimate(key)
		if !ok {
			t.Fatalf("%s has no estimate for %s", id, key)
		}
		if est.Lo > lamTrue || est.Hi < lamTrue {
			t.Errorf("%s CI [%g, %g] excludes the true rate %g", id, est.Lo, est.Hi, lamTrue)
		}
		rate := r.re.Rate(key)
		if rate < lamTrue/2 || rate > lamTrue*2 {
			t.Errorf("%s re-bound rate %g, want within a factor 2 of %g", id, rate, lamTrue)
		}
		// The served prediction is exactly the failure law at the re-bound
		// rate, and lies inside the CI band mapped through the law.
		got, want := 1-r.sup.Predicted(), 1-math.Exp(-rate)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s prediction %g does not track its re-bound rate (want %g)", id, got, want)
		}
		lo, hi := 1-math.Exp(-est.Lo), 1-math.Exp(-est.Hi)
		if got < lo-1e-9 || got > hi+1e-9 {
			t.Errorf("%s predicted Pfail %g outside its CI band [%g, %g] (true %g)",
				id, got, lo, hi, 1-math.Exp(-lamTrue))
		}
		if id != reps[0].node.ID() {
			if st := r.node.Stats(); st.EstimatesMerged == 0 {
				t.Errorf("%s re-predicted without ever merging an estimate snapshot", id)
			}
		}
	}

	// Phase 4 — shutdown: everything quiesces, nothing leaks.
	f.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := gorun.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, gorun.NumGoroutine(), buf[:gorun.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
