package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"socrel/internal/httpapi"
)

// TestFleetEstimatesEndpoint drives traffic through the fleet, gossips,
// and checks /estimates shows a converged per-replica view: replicas
// that served nothing still report the fleet's evidence.
func TestFleetEstimatesEndpoint(t *testing.T) {
	f, _ := newTestFleet(t, 3)
	ts := httptest.NewServer(newFleetMux(f, nil))
	defer ts.Close()

	for i := 0; i < 12; i++ {
		resp, _ := postPredict(t, ts.URL, `{"params":[1,4096,1]}`)
		_ = resp
	}
	f.GossipRound()

	resp, err := http.Get(ts.URL + "/estimates")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Replicas map[string][]httpapi.EstimateMeta `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Replicas) != 3 {
		t.Fatalf("got %d replicas, want 3", len(body.Replicas))
	}
	for id, buckets := range body.Replicas {
		if len(buckets) != 1 {
			t.Fatalf("%s reports %d buckets, want 1 after gossip: %+v", id, len(buckets), buckets)
		}
		b := buckets[0]
		if b.Provider != "search" || b.Observations != 12 {
			t.Fatalf("%s bucket %+v, want provider search with 12 observations", id, b)
		}
	}

	// /stats carries the per-replica estimator block.
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats struct {
		Replicas map[string]map[string]any `json:"replicas"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for id, rep := range stats.Replicas {
		if _, ok := rep["estimator"]; !ok {
			t.Fatalf("%s has no estimator stats block: %v", id, rep)
		}
	}
}
