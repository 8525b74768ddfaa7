package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"socrel/internal/assembly"
	"socrel/internal/core"
	"socrel/internal/estimate"
	"socrel/internal/httpapi"
	"socrel/internal/server"
)

// newEstimateServer wires a test server exactly like run does: the
// serving tier's outcome stream feeds the estimator, and the mux exposes
// /estimates and the estimator stats block.
func newEstimateServer(t *testing.T, eval server.Evaluator) (*httptest.Server, *estimate.Estimator) {
	t.Helper()
	est, err := estimate.New(estimate.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eval, server.Config{
		Service:   "search",
		OnOutcome: estimateFeed(est),
	})
	ts := httptest.NewServer(newMux(srv, nil, est, nil))
	t.Cleanup(ts.Close)
	return ts, est
}

func TestEstimatesEndpoint(t *testing.T) {
	eval := &stubEval{fn: func(context.Context, string, ...float64) (float64, error) { return 0.125, nil }}
	ts, _ := newEstimateServer(t, eval)
	for i := 0; i < 20; i++ {
		resp, err := http.Post(ts.URL+"/predict", "application/json",
			bytes.NewBufferString(`{"params":[1]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict status %d", resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/estimates")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Estimates []httpapi.EstimateMeta `json:"estimates"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Estimates) != 1 {
		t.Fatalf("got %d buckets, want 1: %+v", len(body.Estimates), body.Estimates)
	}
	b := body.Estimates[0]
	if b.Provider != "search" || b.Observations != 20 || b.Failures != 0 {
		t.Fatalf("bad bucket: %+v", b)
	}
	if b.Rate != 0 || b.Hi <= 0 {
		t.Fatalf("censored bucket should fit rate 0 with a positive upper bound: %+v", b)
	}

	// The estimator block shows up in /stats.
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	eb, ok := stats["estimator"].(map[string]any)
	if !ok {
		t.Fatalf("no estimator block in /stats: %v", stats)
	}
	if eb["observed"].(float64) != 20 || eb["keys"].(float64) != 1 {
		t.Fatalf("estimator stats: %v", eb)
	}
}

// TestEstimatesIgnoreRequestFaults: /predict calls with the wrong number
// of parameters are the client's fault, so they record no failures
// against search in /estimates; a well-formed call still records its
// success.
func TestEstimatesIgnoreRequestFaults(t *testing.T) {
	asm, err := assembly.RemoteAssembly(assembly.DefaultPaperParams())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := httpapi.NewEngine(asm, core.Options{}, "search")
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newEstimateServer(t, eng.Evaluator())
	predict := func(body string) int {
		resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i := 0; i < 20; i++ {
		if code := predict(`{"params":[1,4096]}`); code == http.StatusOK {
			t.Fatalf("wrong-arity predict answered 200")
		}
	}
	if code := predict(`{"params":[1,4096,1]}`); code != http.StatusOK {
		t.Fatalf("predict status %d, want 200", code)
	}

	resp, err := http.Get(ts.URL + "/estimates")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Estimates []httpapi.EstimateMeta `json:"estimates"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Estimates) != 1 {
		t.Fatalf("got %d buckets, want 1: %+v", len(body.Estimates), body.Estimates)
	}
	if b := body.Estimates[0]; b.Provider != "search" || b.Observations != 1 || b.Failures != 0 {
		t.Fatalf("bucket %+v, want search with 1 observation and 0 failures", b)
	}
}
