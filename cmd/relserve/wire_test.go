package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"socrel/internal/assembly"
	"socrel/internal/core"
	"socrel/internal/estimate"
	"socrel/internal/linalg"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
	"socrel/internal/store"
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
		if !slices.Contains(removed, k) {
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

// TestWireFormatKeys pins the JSON key sets relserve answers with, so
// moving the wire layer cannot silently drop or rename a key.
func TestWireFormatKeys(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	eval := &stubEval{fn: func(context.Context, string, ...float64) (float64, error) { return 0.25, nil }}
	est, err := estimate.New(estimate.Config{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(&dispatchEval{}, server.Config{
		Service:   "search",
		Clock:     clk,
		OnOutcome: estimateFeed(est),
	})
	asm, err := assembly.LocalAssembly(assembly.DefaultPaperParams())
	if err != nil {
		t.Fatal(err)
	}
	ca, err := core.CompileParametric(asm, core.Options{}, core.ParametricOptions{}, "search")
	if err != nil {
		t.Fatal(err)
	}
	host := newModelHost(store.NewMem(), 4, core.Options{})
	host.def = eval
	ts := httptest.NewServer(newMux(srv, host, est, ca))
	defer ts.Close()

	answer := []string{"kind", "pfail", "reliability"}
	resp, m := doReq(t, "POST", ts.URL+"/predict", `{"params":[1]}`)
	if resp.StatusCode != http.StatusOK || m["kind"] != "exact" {
		t.Fatalf("exact: %d %v", resp.StatusCode, m)
	}
	wantKeys(t, "exact answer", m, answer, nil)

	// A solver that stopped short answers Unavailable. The Bounded kind
	// and its lo and hi keys are gone: the residual certified no bound.
	// An unavailable answer has no value, so no pfail or reliability.
	eval.set(func(context.Context, string, ...float64) (float64, error) {
		return 0, &linalg.NoConvergenceError{Iterations: 10, Residual: 0.05}
	})
	resp, m = doReq(t, "POST", ts.URL+"/predict", `{"params":[1]}`)
	if resp.StatusCode != http.StatusInternalServerError || m["kind"] != "unavailable" {
		t.Fatalf("no convergence: %d %v", resp.StatusCode, m)
	}
	wantKeys(t, "no-convergence answer", m, append(answer, "lo", "hi", "error"), nil, "lo", "hi", "pfail", "reliability")

	resp, m = doReq(t, "POST", ts.URL+"/predict?model=acme/none", `{"params":[2]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: %d %v", resp.StatusCode, m)
	}
	wantKeys(t, "error body", m, []string{"error"}, nil)

	eval.set(func(context.Context, string, ...float64) (float64, error) { return 0, errors.New("backend down") })
	resp, m = doReq(t, "POST", ts.URL+"/predict", `{"params":[3]}`)
	if resp.StatusCode != http.StatusInternalServerError || m["kind"] != "unavailable" {
		t.Fatalf("unavailable: %d %v", resp.StatusCode, m)
	}
	wantKeys(t, "unavailable answer", m, append(answer, "error"), nil, "pfail", "reliability")

	// Stale: a closed-form server sheds a request after its scope's
	// first exact answer (an hour-long service-time estimate sheds any
	// request with a deadline).
	srv2 := server.New(ca, server.Config{Service: "search", Clock: clk, InitialEstimate: time.Hour})
	ts2 := httptest.NewServer(newMux(srv2, nil, nil, nil))
	defer ts2.Close()
	if resp, m = doReq(t, "POST", ts2.URL+"/predict", `{"params":[1,4096,1]}`); m["kind"] != "exact" {
		t.Fatalf("closed-form seed: %d %v", resp.StatusCode, m)
	}
	clk.Advance(3 * time.Second)
	resp, m = doReq(t, "POST", ts2.URL+"/predict", `{"params":[1,8192,1],"timeout_ms":1000}`)
	if resp.StatusCode != http.StatusOK || m["kind"] != "stale" {
		t.Fatalf("stale: %d %v", resp.StatusCode, m)
	}
	wantKeys(t, "stale answer", m, append(answer, "age_ms", "error"), nil)

	eval.set(func(context.Context, string, ...float64) (float64, error) { return 0.5, nil })
	resp, m = doReq(t, "POST", ts.URL+"/predict/batch", `{"param_sets":[[1],[2]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %v", resp.StatusCode, m)
	}
	wantKeys(t, "batch body", m, []string{"answers"}, nil)
	for _, a := range m["answers"].([]any) {
		wantKeys(t, "batch answer", a, answer, nil)
	}

	_, m = doReq(t, "GET", ts.URL+"/healthz", "")
	wantKeys(t, "/healthz", m, []string{"status", "saturation"}, nil)

	_, m = doReq(t, "GET", ts.URL+"/estimates", "")
	wantKeys(t, "/estimates", m, []string{"estimates"}, nil)
	buckets := m["estimates"].([]any)
	if len(buckets) == 0 {
		t.Fatal("/estimates: no buckets")
	}
	wantKeys(t, "estimate bucket", buckets[0], []string{"provider", "rate", "lo", "hi", "observations", "failures"}, nil)

	_, m = doReq(t, "GET", ts.URL+"/stats", "")
	wantKeys(t, "/stats", m, []string{
		"offered", "admitted", "exact", "stale", "bounded", "unavailable",
		"shed_queue_full", "shed_class", "shed_deadline", "shed_draining", "draining",
		"swept_expired", "canceled_waiting", "hedges_launched", "hedge_wins",
		"limit", "inflight", "queue_depth", "estimated_latency_us", "hedge_delay_us", "saturation",
		"artifact_cache", "estimator", "parametric",
	}, []string{"repaired"},
		// The server no longer hedges requests, and no answer is Bounded.
		"hedges_launched", "hedge_wins", "hedge_delay_us", "bounded",
	)
	wantKeys(t, "/stats artifact_cache", m["artifact_cache"], []string{"hits", "misses", "evictions", "entries"}, nil)
	wantKeys(t, "/stats estimator", m["estimator"], []string{"observed", "keys", "drift_violations", "merged", "bad_merges"}, nil)
	wantKeys(t, "/stats parametric", m["parametric"], []string{"outputs", "fallbacks", "parametric_points", "numeric_points", "gradient_points"}, nil)
}
