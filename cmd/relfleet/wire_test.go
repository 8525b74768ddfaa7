package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"socrel/internal/assembly"
	"socrel/internal/cluster"
	"socrel/internal/core"
	"socrel/internal/estimate"
	"socrel/internal/linalg"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
)

// keysOf returns the sorted key set of a decoded JSON object.
func keysOf(t *testing.T, v any) []string {
	t.Helper()
	m, ok := v.(map[string]any)
	if !ok {
		t.Fatalf("want a JSON object, got %T %v", v, v)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// wantKeys checks that obj has exactly the original wire keys plus the
// keys added since, minus the keys removed since. Keys are added freely;
// a removal or rename is a deliberate wire change, so it must be named
// in removed rather than dropped from the lists above it.
func wantKeys(t *testing.T, what string, obj any, original, added []string, removed ...string) {
	t.Helper()
	var want []string
	for _, k := range append(append([]string{}, original...), added...) {
		gone := false
		for _, r := range removed {
			gone = gone || k == r
		}
		if !gone {
			want = append(want, k)
		}
	}
	if len(want) != len(original)+len(added)-len(removed) {
		t.Fatalf("%s: removed keys %v are not all in the original or added lists", what, removed)
	}
	sort.Strings(want)
	if got := keysOf(t, obj); !reflect.DeepEqual(got, want) {
		t.Errorf("%s keys = %v, want %v", what, got, want)
	}
}

// switchEval serves a closed form until the test arms an error, which
// every evaluation then returns. Embedding forwards Inline, so a shed
// request is answered from the closed form.
type switchEval struct {
	*core.CompiledAssembly
	mu   sync.Mutex
	fail error
}

func (s *switchEval) PfailCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	s.mu.Lock()
	fail := s.fail
	s.mu.Unlock()
	if fail != nil {
		return 0, fail
	}
	return s.CompiledAssembly.PfailCtx(ctx, service, params...)
}

func (s *switchEval) setFail(err error) {
	s.mu.Lock()
	s.fail = err
	s.mu.Unlock()
}

// TestWireFormatKeys pins the JSON key sets relfleet answers with, so
// moving the wire layer cannot silently drop or rename a key.
func TestWireFormatKeys(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	asm, err := assembly.LocalAssembly(assembly.DefaultPaperParams())
	if err != nil {
		t.Fatal(err)
	}
	ca, err := core.CompileParametric(asm, core.Options{}, core.ParametricOptions{}, "search")
	if err != nil {
		t.Fatal(err)
	}
	eval := &switchEval{CompiledAssembly: ca}
	f, err := cluster.NewFleet(cluster.FleetConfig{
		Replicas: 1,
		Node:     cluster.NodeConfig{GossipInterval: time.Second, Clock: clk},
		// An hour-long service-time estimate sheds any request with a
		// deadline at admission.
		Server:       server.Config{Service: "search", InitialEstimate: time.Hour},
		NewEvaluator: func(string) server.Evaluator { return eval },
		NewEstimator: func(string) *estimate.Estimator {
			est, err := estimate.New(estimate.Config{Clock: clk})
			if err != nil {
				t.Fatal(err)
			}
			return est
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	ts := httptest.NewServer(newFleetMux(f, ca))
	defer ts.Close()

	answer := []string{"kind", "pfail", "reliability"}
	resp, m := postPredict(t, ts.URL, `{"params":[1,4096,1]}`)
	if resp.StatusCode != http.StatusOK || m["kind"] != "exact" {
		t.Fatalf("exact: %d %v", resp.StatusCode, m)
	}
	wantKeys(t, "exact answer", m, answer, nil)

	// Stale: a shed after the scope's exact answer, from the closed form.
	clk.Advance(3 * time.Second)
	resp, m = postPredict(t, ts.URL, `{"params":[1,8192,1],"timeout_ms":1000}`)
	if resp.StatusCode != http.StatusOK || m["kind"] != "stale" {
		t.Fatalf("stale: %d %v", resp.StatusCode, m)
	}
	wantKeys(t, "stale answer", m, append(answer, "age_ms", "error"), nil)

	// A solver that stopped short answers Unavailable. The Bounded kind
	// and its lo and hi keys are gone: the residual certified no bound.
	// An unavailable answer has no value, so no pfail or reliability.
	eval.setFail(&linalg.NoConvergenceError{Iterations: 10, Residual: 0.05})
	resp, m = postPredict(t, ts.URL, `{"params":[1,4096,1]}`)
	if resp.StatusCode != http.StatusInternalServerError || m["kind"] != "unavailable" {
		t.Fatalf("no convergence: %d %v", resp.StatusCode, m)
	}
	wantKeys(t, "no-convergence answer", m, append(answer, "lo", "hi", "error"), nil, "lo", "hi", "pfail", "reliability")

	eval.setFail(errors.New("backend down"))
	resp, m = postPredict(t, ts.URL, `{"params":[1,4096,1]}`)
	if resp.StatusCode != http.StatusInternalServerError || m["kind"] != "unavailable" {
		t.Fatalf("unavailable: %d %v", resp.StatusCode, m)
	}
	wantKeys(t, "unavailable answer", m, append(answer, "error"), nil, "pfail", "reliability")

	resp, m = postPredict(t, ts.URL, `{"priority":"urgent"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad priority: %d %v", resp.StatusCode, m)
	}
	wantKeys(t, "error body", m, []string{"error"}, nil)

	m = getJSON(t, ts.URL+"/healthz")
	wantKeys(t, "/healthz", m, []string{"status", "live", "accepting"}, nil)

	m = getJSON(t, ts.URL+"/estimates")
	wantKeys(t, "/estimates", m, []string{"replicas"}, nil)
	perReplica := m["replicas"].(map[string]any)
	buckets := perReplica["replica-0"].([]any)
	if len(buckets) == 0 {
		t.Fatal("/estimates: no buckets")
	}
	for _, b := range buckets {
		bucket := []string{"provider", "rate", "lo", "hi", "observations", "failures"}
		if _, scoped := b.(map[string]any)["context"]; scoped {
			bucket = append(bucket, "context")
		}
		wantKeys(t, "estimate bucket", b, bucket, nil)
	}

	m = getJSON(t, ts.URL+"/cluster")
	wantKeys(t, "/cluster", m, []string{"replicas"}, nil)
	view := m["replicas"].(map[string]any)["replica-0"]
	wantKeys(t, "/cluster replica", view, []string{
		"members", "served_local", "forwarded", "forward_failed", "served_forwarded",
		"rumors_sent", "rumors_received", "rumors_skipped",
	}, []string{
		"served_for_dead", "read_repaired", "evidence_merged", "bad_rumors", "estimates_merged", "bad_estimates",
	},
		// bad_rumors counted health-tracker evidence that failed
		// validation; the tracker no longer gossips, and estimator
		// rejections count in bad_estimates.
		"bad_rumors",
	)
	members := view.(map[string]any)["members"].([]any)
	wantKeys(t, "/cluster member", members[0], []string{"id", "state", "heartbeat"}, nil)

	m = getJSON(t, ts.URL+"/stats")
	wantKeys(t, "/stats", m, []string{"offered", "exact", "stale", "bounded", "unavailable", "shed", "replicas", "parametric"}, nil,
		// No answer is Bounded any more.
		"bounded",
	)
	wantKeys(t, "/stats parametric", m["parametric"], []string{"outputs", "fallbacks", "parametric_points", "numeric_points", "gradient_points"}, nil)
	rep := m["replicas"].(map[string]any)["replica-0"]
	wantKeys(t, "/stats replica", rep, []string{
		"offered", "exact", "stale", "bounded", "unavailable", "limit", "inflight",
		"queue_depth", "saturation", "draining", "estimator",
	}, []string{
		"admitted", "shed_queue_full", "shed_class", "shed_deadline", "shed_draining", "swept_expired",
		"canceled_waiting", "hedges_launched", "hedge_wins", "repaired", "estimated_latency_us", "hedge_delay_us",
	},
		// The server no longer hedges requests, and no answer is Bounded.
		"hedges_launched", "hedge_wins", "hedge_delay_us", "bounded",
	)
	wantKeys(t, "/stats replica estimator", rep.(map[string]any)["estimator"], []string{"observed", "keys", "drift_violations", "merged", "bad_merges"}, nil)
}
