package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	gorun "runtime"
	"strings"
	"testing"
	"time"

	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
)

func newTestServerFrom(srv *server.Server) *httptest.Server {
	return httptest.NewServer(newMux(srv, nil, nil, nil))
}

func decodeJSON(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDrainShedsWith503RetryAfter: while a drain is in progress the
// listener stays up and new /predict calls get 503 + Retry-After — the
// load balancer's signal to move on — not connection resets.
func TestDrainShedsWith503RetryAfter(t *testing.T) {
	eval := &stubEval{}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	eval.set(func(ctx context.Context, _ string, _ ...float64) (float64, error) {
		entered <- struct{}{}
		<-release
		return 0.015, nil
	})
	srv := server.New(eval, server.Config{Service: "search"})
	ts := newTestServerFrom(srv)
	defer ts.Close()
	defer close(release)

	inFlight := make(chan struct{})
	go func() {
		defer close(inFlight)
		resp, m := postJSON(t, ts.URL+"/predict", `{"params":[1]}`)
		if resp.StatusCode != http.StatusOK || m["kind"] != "exact" {
			t.Errorf("pre-drain request got %d %v, want 200 exact", resp.StatusCode, m)
		}
	}()
	<-entered

	drainDone := make(chan error, 1)
	var out bytes.Buffer
	go func() { drainDone <- drainAndReport(srv, &out, time.Minute) }()
	for !srv.Draining() {
		gorun.Gosched()
	}

	resp, m := postJSON(t, ts.URL+"/predict", `{"params":[1]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain got %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 during drain is missing Retry-After")
	}
	if msg, _ := m["error"].(string); !strings.Contains(msg, "draining") {
		t.Fatalf("shed body does not name the drain: %v", m)
	}

	release <- struct{}{}
	<-inFlight
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !strings.Contains(out.String(), "final stats:") || !strings.Contains(out.String(), "exact=1") {
		t.Fatalf("drain report missing final stats line: %q", out.String())
	}
}

// TestDrainAndReportTimeoutOnFakeClock: the drain deadline runs on the
// injected clock — a straggler past the virtual deadline yields
// ErrDrainTimeout with the stats line still printed, and no real time
// passes.
func TestDrainAndReportTimeoutOnFakeClock(t *testing.T) {
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	eval := &stubEval{}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	eval.set(func(ctx context.Context, _ string, _ ...float64) (float64, error) {
		entered <- struct{}{}
		<-release
		return 0.5, nil
	})
	srv := server.New(eval, server.Config{Clock: clk})

	answers := make(chan socruntime.Answer, 1)
	go func() { answers <- srv.Serve(context.Background(), server.Request{}) }()
	<-entered

	var out bytes.Buffer
	drainDone := make(chan error, 1)
	go func() { drainDone <- drainAndReport(srv, &out, 5*time.Second) }()
	for !srv.Draining() {
		gorun.Gosched()
	}
	clk.WaitForTimers(1)
	clk.Advance(5 * time.Second)
	if err := <-drainDone; !errors.Is(err, server.ErrDrainTimeout) {
		t.Fatalf("drain = %v, want ErrDrainTimeout", err)
	}
	if !strings.Contains(out.String(), "inflight=1") {
		t.Fatalf("timeout report should show the straggler: %q", out.String())
	}

	close(release)
	if ans := <-answers; !ans.IsExact() {
		t.Fatalf("straggler answer %+v, want exact", ans)
	}
}

// TestStatsReportsDraining: /stats exposes the drain flag and counter.
func TestStatsReportsDraining(t *testing.T) {
	eval := &stubEval{}
	eval.set(func(context.Context, string, ...float64) (float64, error) { return 0.1, nil })
	srv := server.New(eval, server.Config{Service: "search"})
	ts := newTestServerFrom(srv)
	defer ts.Close()

	if _, err := srv.Drain(context.Background(), time.Second); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m := decodeJSON(t, resp)
	if m["draining"] != true {
		t.Fatalf("stats draining = %v, want true", m["draining"])
	}
}
