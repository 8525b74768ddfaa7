// Command relfleet serves reliability predictions from a replicated
// fleet of in-process serving replicas: consistent-hash routing of
// (scope, service, parameter-region) keys with at-most-one-hop
// forwarding, gossip of each replica's failure-parameter estimator so a
// provider whose failure rate drifts up on one replica quarantines
// fleet-wide, and per-replica admission control with the
// graceful-degradation ladder. Killing a replica (or losing it
// to a partition, with a fault-injected transport) rebalances its keys
// to the survivors without dropping the fleet.
//
// Usage:
//
//	relfleet -paper local -service search -replicas 3 -listen :8080
//	relfleet -file system.adl -assembly local -service search -listen :8080
//
// Endpoints:
//
//	POST /predict   {"service":"search","scope":"tenant-a","params":[1,4096,1],"priority":"interactive","timeout_ms":250}
//	GET  /healthz   200 while any replica accepts load
//	GET  /cluster   per-replica membership views and routing counters
//	GET  /stats     aggregate and per-replica serving counters, estimator counters
//	GET  /estimates per-replica fitted failure rates — convergent fleet-wide via gossip
//
// Each replica runs an online failure-parameter estimator fed by its own
// served evaluations; estimator snapshots are what the gossip carries,
// so every replica's /estimates view converges on the union of the
// fleet's evidence within bounded gossip rounds.
//
// The wire layer is internal/httpapi, shared with relserve.
//
// On SIGTERM the fleet drains: admission closes everywhere (503 +
// Retry-After), in-flight work finishes within -drain-timeout, and each
// replica prints its final stats line.
//
// The fleet machinery this command wires up — gossip, membership,
// forwarding, estimators — is also exercised by the deterministic
// simulation harness (internal/dst): seeded fault schedules on a
// virtual timeline, replayable with
// go test ./internal/dst -run TestDSTSeed -dst.seed=N and shrunk to
// minimal regression tests on failure. See DESIGN.md §16.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"socrel/internal/adl"
	"socrel/internal/cluster"
	"socrel/internal/core"
	"socrel/internal/httpapi"
	"socrel/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "relfleet:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("relfleet", flag.ContinueOnError)
	file := fs.String("file", "", "ADL file (.adl DSL or .json); '-' reads stdin")
	asmName := fs.String("assembly", "", "assembly name within the document")
	paper := fs.String("paper", "", "use the built-in paper example: 'local' or 'remote'")
	service := fs.String("service", "search", "default service to evaluate")
	listen := fs.String("listen", ":8080", "address to listen on")
	replicas := fs.Int("replicas", 3, "fleet size")
	gossip := fs.Duration("gossip", 100*time.Millisecond, "gossip round interval")
	queueCap := fs.Int("queue", 64, "per-replica admission queue capacity")
	maxConc := fs.Int("max-concurrency", 0, "per-replica AIMD limiter ceiling (0 = 4×GOMAXPROCS)")
	latencyTarget := fs.Duration("latency-target", 50*time.Millisecond, "per-evaluation latency the limiter steers toward")
	fixedPoint := fs.Bool("fixedpoint", false, "solve recursive assemblies by fixed-point iteration")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Second, "how long SIGTERM waits for in-flight work before exiting")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := core.Options{}
	if *fixedPoint {
		opts.Cycles = core.CycleFixedPoint
	}
	asm, err := adl.LoadAssembly(*file, *asmName, *paper)
	if err != nil {
		return err
	}
	eng, err := httpapi.NewEngine(asm, opts, *service)
	if err != nil {
		return err
	}

	f, err := cluster.NewFleet(cluster.FleetConfig{
		Replicas: *replicas,
		Node:     cluster.NodeConfig{GossipInterval: *gossip},
		Server: server.Config{
			Service:       *service,
			QueueCapacity: *queueCap,
			Limiter:       server.LimiterConfig{Max: *maxConc, LatencyTarget: *latencyTarget},
		},
		NewEvaluator: func(string) server.Evaluator { return eng.Evaluator() },
	})
	if err != nil {
		return err
	}
	f.Start()
	defer f.Stop()

	fmt.Fprintf(out, "relfleet: serving %q (%s engine) on %s with %d replicas\n", *service, eng.Mode, *listen, *replicas)
	return httpapi.ListenAndDrain(&http.Server{Addr: *listen, Handler: newFleetMux(f, eng.Compiled)}, func() {
		fmt.Fprintln(out, "relfleet: draining")
		if err := f.Drain(context.Background(), *drainTimeout); err != nil {
			fmt.Fprintln(out, "relfleet: drain:", err)
		}
		for _, n := range f.Live() {
			st := n.Server().Stats()
			fmt.Fprintf(out, "relfleet: %s final stats: offered=%d exact=%d stale=%d unavailable=%d shed_draining=%d\n",
				n.ID(), st.Offered, st.Exact, st.Stale, st.Unavailable, st.ShedDraining)
		}
	})
}

// memberView is one replica's judgment of the fleet in /cluster.
type memberView struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Heartbeat uint64 `json:"heartbeat"`
}

// replicaView is one replica's entry in /cluster: its membership view
// and its routing and gossip counters.
type replicaView struct {
	Members []memberView `json:"members"`
	cluster.NodeStats
}

// newFleetMux builds the HTTP handler over a fleet. Split from run so
// tests drive it with httptest. ca, when non-nil, is the compiled
// artifact every replica shares; /stats then reports the parametric
// (closed-form) vs numeric path split for the whole fleet.
func newFleetMux(f *cluster.Fleet, ca *core.CompiledAssembly) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		req, pri, ok := httpapi.Decode(w, r, server.Interactive)
		if !ok {
			return
		}
		httpapi.WriteAnswer(w, f.Serve(r.Context(), req.Point(pri)))
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		live := f.Live()
		accepting := 0
		for _, n := range live {
			if n.Server().Saturation() != server.SatOverload && !n.Server().Draining() {
				accepting++
			}
		}
		status := http.StatusOK
		state := "ok"
		if accepting == 0 {
			status = http.StatusServiceUnavailable
			state = "unavailable"
		}
		httpapi.WriteJSON(w, status, map[string]any{
			"status":    state,
			"live":      len(live),
			"accepting": accepting,
		})
	})

	mux.HandleFunc("GET /cluster", func(w http.ResponseWriter, r *http.Request) {
		views := map[string]replicaView{}
		for _, n := range f.Live() {
			members := n.Members()
			mv := make([]memberView, len(members))
			for i, m := range members {
				mv[i] = memberView{ID: m.ID, State: m.State.String(), Heartbeat: m.Heartbeat}
			}
			views[n.ID()] = replicaView{Members: mv, NodeStats: n.Stats()}
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"replicas": views})
	})

	mux.HandleFunc("GET /estimates", func(w http.ResponseWriter, r *http.Request) {
		perReplica := map[string][]httpapi.EstimateMeta{}
		for _, n := range f.Live() {
			perReplica[n.ID()] = httpapi.Estimates(n.Estimator())
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"replicas": perReplica})
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		perReplica := map[string]any{}
		var offered, exact, stale, unavailable, shed uint64
		for _, n := range f.Live() {
			st := n.Server().Stats()
			offered += st.Offered
			exact += st.Exact
			stale += st.Stale
			unavailable += st.Unavailable
			shed += st.ShedQueueFull + st.ShedClass + st.ShedDeadline + st.SweptExpired + st.ShedDraining
			perReplica[n.ID()] = httpapi.ServerStats(st, n.Server().Draining(), n.Estimator())
		}
		stats := map[string]any{
			"offered":     offered,
			"exact":       exact,
			"stale":       stale,
			"unavailable": unavailable,
			"shed":        shed,
			"replicas":    perReplica,
		}
		if ca != nil {
			stats["parametric"] = ca.ParametricStats()
		}
		httpapi.WriteJSON(w, http.StatusOK, stats)
	})

	return mux
}
