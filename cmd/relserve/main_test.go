package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"socrel/internal/assembly"
	"socrel/internal/core"
	"socrel/internal/httpapi"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
)

// stubEval is a swappable evaluator for handler tests.
type stubEval struct {
	mu sync.Mutex
	fn func(ctx context.Context, service string, params ...float64) (float64, error)
}

func (s *stubEval) PfailCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	s.mu.Lock()
	fn := s.fn
	s.mu.Unlock()
	return fn(ctx, service, params...)
}

func (s *stubEval) set(fn func(ctx context.Context, service string, params ...float64) (float64, error)) {
	s.mu.Lock()
	s.fn = fn
	s.mu.Unlock()
}

func newTestServer(eval server.Evaluator, cfg server.Config) *httptest.Server {
	if cfg.Service == "" {
		cfg.Service = "search"
	}
	return httptest.NewServer(newMux(server.New(eval, cfg), nil, nil, nil))
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, m
}

func TestPredictExact(t *testing.T) {
	eval := &stubEval{}
	eval.set(func(_ context.Context, service string, params ...float64) (float64, error) {
		if service != "search" || len(params) != 3 {
			return 0, fmt.Errorf("unexpected call %s %v", service, params)
		}
		return 0.015, nil
	})
	ts := newTestServer(eval, server.Config{})
	defer ts.Close()

	resp, m := postJSON(t, ts.URL+"/predict", `{"params":[1,4096,1]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if m["kind"] != "exact" || m["pfail"] != 0.015 {
		t.Fatalf("body = %v, want exact 0.015", m)
	}
	if m["reliability"] != 1-0.015 {
		t.Fatalf("reliability = %v, want %v", m["reliability"], 1-0.015)
	}
	if _, present := m["error"]; present {
		t.Fatalf("exact answer must not carry an error field: %v", m)
	}
}

// TestPredictInterpreted: a model the compiled engine refuses
// (-fixedpoint) is served by the interpreter; concurrent requests share no
// evaluator state, and each answer is exact and bit for bit what a
// one-shot interpreter returns.
func TestPredictInterpreted(t *testing.T) {
	asm, err := assembly.RemoteAssembly(assembly.DefaultPaperParams())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Cycles: core.CycleFixedPoint}
	eng, err := httpapi.NewEngine(asm, opts, "search")
	if err != nil {
		t.Fatal(err)
	}
	if eng.Mode != "interpreted" {
		t.Fatalf("engine mode = %q, want interpreted", eng.Mode)
	}
	ts := newTestServer(eng.Evaluator(), server.Config{})
	defer ts.Close()

	lists := []float64{16, 4096, 65536, 1 << 20}
	want := make([]float64, len(lists))
	for i, list := range lists {
		if want[i], err = core.New(asm, opts).Pfail("search", 1, list, 1); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				k := (g + i) % len(lists)
				body := fmt.Sprintf(`{"params":[1,%g,1]}`, lists[k])
				resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var m map[string]any
				err = json.NewDecoder(resp.Body).Decode(&m)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if m["kind"] != "exact" || m["pfail"] != want[k] {
					t.Errorf("list=%g: body %v, want exact %.17g", lists[k], m, want[k])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPredictDegradesToStale: on a closed-form model, a request the
// server sheds after the scope's first exact answer is a usable 200
// Stale answer: the closed form at the requested point, carrying the
// shed cause.
func TestPredictDegradesToStale(t *testing.T) {
	asm, err := assembly.LocalAssembly(assembly.DefaultPaperParams())
	if err != nil {
		t.Fatal(err)
	}
	ca, err := core.CompileParametric(asm, core.Options{}, core.ParametricOptions{}, "search")
	if err != nil {
		t.Fatal(err)
	}
	// An hour-long service-time estimate sheds any request with a
	// deadline at admission.
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	srv := server.New(ca, server.Config{Service: "search", Clock: clk, InitialEstimate: time.Hour})
	ts := httptest.NewServer(newMux(srv, nil, nil, nil))
	defer ts.Close()

	if resp, m := postJSON(t, ts.URL+"/predict", `{"params":[1,4096,1]}`); resp.StatusCode != 200 || m["kind"] != "exact" {
		t.Fatalf("seed request failed: %d %v", resp.StatusCode, m)
	}
	clk.Advance(1500 * time.Millisecond)
	resp, m := postJSON(t, ts.URL+"/predict", `{"params":[1,8192,1],"timeout_ms":1000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale answers are still usable: status = %d, want 200", resp.StatusCode)
	}
	want, err := ca.Pfail("search", 1, 8192, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m["kind"] != "stale" || m["pfail"] != want {
		t.Fatalf("body = %v, want stale %v", m, want)
	}
	if m["age_ms"] != 1500.0 {
		t.Fatalf("age_ms = %v, want 1500", m["age_ms"])
	}
	if msg, _ := m["error"].(string); !strings.Contains(msg, "overloaded") {
		t.Fatalf("degraded answer must carry its cause, got %v", m["error"])
	}
}

func TestPredictShedViaFullQueue(t *testing.T) {
	eval := &stubEval{}
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	eval.set(func(ctx context.Context, _ string, _ ...float64) (float64, error) {
		once.Do(func() { close(started) })
		select {
		case <-gate:
			return 0.02, nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	})
	ts := newTestServer(eval, server.Config{
		QueueCapacity: 1,
		Limiter:       server.LimiterConfig{Initial: 1, Min: 1, Max: 1},
	})
	defer ts.Close()

	// Occupy the single slot.
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader(`{}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	// Fill the one-deep queue.
	queuedDone := make(chan struct{})
	go func() {
		defer close(queuedDone)
		resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader(`{"timeout_ms":60000}`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitForQueueDepth(t, ts.URL, 1)

	// healthz reports overload and a further request sheds with 503.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz at overload = %d, want 503", hresp.StatusCode)
	}

	resp, m := postJSON(t, ts.URL+"/predict", `{}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, want 503 (body %v)", resp.StatusCode, m)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed responses must carry Retry-After")
	}
	if m["kind"] != "unavailable" {
		t.Fatalf("kind = %v, want unavailable", m["kind"])
	}
	if msg, _ := m["error"].(string); !strings.Contains(msg, "overloaded") {
		t.Fatalf("error = %v, want an overload cause", m["error"])
	}

	close(gate)
	<-blockerDone
	<-queuedDone

	hresp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after drain = %d, want 200", hresp.StatusCode)
	}
}

// waitForQueueDepth polls /stats until the admission queue reaches depth
// n (bounded; the queued request is in flight on real goroutines).
func waitForQueueDepth(t *testing.T, url string, n float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if m["queue_depth"] == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached depth %v: %v", n, m)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestPredictBatch(t *testing.T) {
	eval := &stubEval{}
	eval.set(func(_ context.Context, _ string, params ...float64) (float64, error) {
		return 0.1 * params[0], nil
	})
	ts := newTestServer(eval, server.Config{})
	defer ts.Close()

	resp, m := postJSON(t, ts.URL+"/predict/batch", `{"param_sets":[[1],[2]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	answers, ok := m["answers"].([]any)
	if !ok || len(answers) != 2 {
		t.Fatalf("body = %v, want 2 answers", m)
	}
	first := answers[0].(map[string]any)
	if first["kind"] != "exact" || first["pfail"] != 0.1 {
		t.Fatalf("answers[0] = %v, want exact 0.1", first)
	}
}

func TestPredictBadRequests(t *testing.T) {
	ts := newTestServer(&stubEval{fn: func(context.Context, string, ...float64) (float64, error) { return 0, nil }},
		server.Config{})
	defer ts.Close()

	resp, _ := postJSON(t, ts.URL+"/predict", `{not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status = %d, want 400", resp.StatusCode)
	}
	resp, m := postJSON(t, ts.URL+"/predict", `{"priority":"urgent"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad priority: status = %d, want 400", resp.StatusCode)
	}
	if msg, _ := m["error"].(string); !strings.Contains(msg, "urgent") {
		t.Fatalf("error = %v, want the offending priority named", m["error"])
	}
	if resp, err := http.Get(ts.URL + "/predict"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /predict = %d, want 405", resp.StatusCode)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	eval := &stubEval{}
	eval.set(func(context.Context, string, ...float64) (float64, error) { return 0.5, nil })
	ts := newTestServer(eval, server.Config{})
	defer ts.Close()

	if resp, _ := postJSON(t, ts.URL+"/predict", `{}`); resp.StatusCode != 200 {
		t.Fatalf("predict failed: %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m["offered"] != 1.0 || m["exact"] != 1.0 {
		t.Fatalf("stats = %v, want offered=1 exact=1", m)
	}
	if m["saturation"] != "normal" {
		t.Fatalf("saturation = %v, want normal", m["saturation"])
	}
	for _, key := range []string{"limit", "queue_depth", "shed_queue_full", "estimated_latency_us"} {
		if _, present := m[key]; !present {
			t.Fatalf("stats missing %q: %v", key, m)
		}
	}
}

func TestRunFlagValidation(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{}, &sb); err == nil || !strings.Contains(err.Error(), "-file or -paper") {
		t.Fatalf("run with no source: err = %v, want the flag hint", err)
	}
	if err := run([]string{"-paper", "bogus"}, &sb); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("bad -paper: err = %v", err)
	}
}
