package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"socrel/internal/assembly"
	"socrel/internal/cluster"
	"socrel/internal/core"
	"socrel/internal/estimate"
	"socrel/internal/httpapi"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
)

// newTestFleet builds a real paper-model fleet on a fake clock (no
// background gossip; tests drive rounds explicitly).
func newTestFleet(t *testing.T, replicas int) (*cluster.Fleet, *socruntime.FakeClock) {
	t.Helper()
	asm, err := assembly.LocalAssembly(assembly.DefaultPaperParams())
	if err != nil {
		t.Fatal(err)
	}
	return newEngineFleet(t, replicas, asm, core.Options{}, "parametric")
}

// newEngineFleet is newTestFleet over asm served with opts, whose engine
// must take the evaluation path named wantMode.
func newEngineFleet(t *testing.T, replicas int, asm *assembly.Assembly, opts core.Options, wantMode string) (*cluster.Fleet, *socruntime.FakeClock) {
	t.Helper()
	eng, err := httpapi.NewEngine(asm, opts, "search")
	if err != nil {
		t.Fatal(err)
	}
	if eng.Mode != wantMode {
		t.Fatalf("engine mode = %q, want %q", eng.Mode, wantMode)
	}
	clk := socruntime.NewFakeClock(time.Unix(0, 0))
	f, err := cluster.NewFleet(cluster.FleetConfig{
		Replicas: replicas,
		Node: cluster.NodeConfig{
			GossipInterval: time.Second,
			SuspectAfter:   3 * time.Second,
			DeadAfter:      9 * time.Second,
			Clock:          clk,
		},
		Server:       server.Config{Service: "search"},
		NewEvaluator: func(string) server.Evaluator { return eng.Evaluator() },
		NewEstimator: func(id string) *estimate.Estimator {
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
	t.Cleanup(f.Stop)
	return f, clk
}

func postPredict(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return resp, m
}

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFleetPredictExact: a fleet answers the paper model exactly over
// HTTP, whichever replica the entry round-robin picks.
func TestFleetPredictExact(t *testing.T) {
	f, _ := newTestFleet(t, 3)
	ts := httptest.NewServer(newFleetMux(f, nil))
	defer ts.Close()

	for i := 0; i < 6; i++ {
		resp, m := postPredict(t, ts.URL, `{"params":[1,4096,1]}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		if m["kind"] != "exact" {
			t.Fatalf("kind = %v, want exact (body %v)", m["kind"], m)
		}
	}
}

// TestFleetPredictInterpreted: a fleet serving a model the compiled engine
// refuses (-fixedpoint) answers concurrent requests across its replicas
// exactly, each bit for bit what a one-shot interpreter returns.
func TestFleetPredictInterpreted(t *testing.T) {
	asm, err := assembly.LocalAssembly(assembly.DefaultPaperParams())
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Cycles: core.CycleFixedPoint}
	f, _ := newEngineFleet(t, 3, asm, opts, "interpreted")
	ts := httptest.NewServer(newFleetMux(f, nil))
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

// TestFleetSurvivesKill: killing a replica mid-serve leaves the fleet
// answering — keys rebalance to the survivors.
func TestFleetSurvivesKill(t *testing.T) {
	f, clk := newTestFleet(t, 3)
	ts := httptest.NewServer(newFleetMux(f, nil))
	defer ts.Close()

	if resp, _ := postPredict(t, ts.URL, `{"params":[1,4096,1]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-kill status = %d", resp.StatusCode)
	}
	f.GossipRound()
	if !f.Kill("replica-1") {
		t.Fatal("Kill refused")
	}
	for f.Node("replica-0").MemberState("replica-1") != cluster.Dead {
		clk.Advance(time.Second)
		f.GossipRound()
		if clk.Now().After(time.Unix(60, 0)) {
			t.Fatal("killed replica never marked dead")
		}
	}
	for i := 0; i < 6; i++ {
		resp, m := postPredict(t, ts.URL, `{"params":[1,4096,1]}`)
		if resp.StatusCode != http.StatusOK || m["kind"] != "exact" {
			t.Fatalf("post-kill answer %d %v, want 200 exact", resp.StatusCode, m)
		}
	}

	mc := getJSON(t, ts.URL+"/cluster")
	views, _ := mc["replicas"].(map[string]any)
	if len(views) != 2 {
		t.Fatalf("/cluster lists %d live replicas, want 2", len(views))
	}
	if _, present := views["replica-1"]; present {
		t.Fatal("/cluster still lists the killed replica as live")
	}

	hz := getJSON(t, ts.URL+"/healthz")
	if hz["live"] != float64(2) {
		t.Fatalf("healthz live = %v, want 2", hz["live"])
	}
}

// TestFleetStatsAggregates: /stats sums per-replica counters.
func TestFleetStatsAggregates(t *testing.T) {
	f, _ := newTestFleet(t, 2)
	ts := httptest.NewServer(newFleetMux(f, nil))
	defer ts.Close()

	for i := 0; i < 4; i++ {
		postPredict(t, ts.URL, `{"params":[1,4096,1]}`)
	}
	m := getJSON(t, ts.URL+"/stats")
	if m["offered"].(float64) < 4 {
		t.Fatalf("aggregate offered = %v, want >= 4", m["offered"])
	}
	if m["exact"].(float64) < 4 {
		t.Fatalf("aggregate exact = %v, want >= 4", m["exact"])
	}
	replicas, _ := m["replicas"].(map[string]any)
	if len(replicas) != 2 {
		t.Fatalf("per-replica stats for %d replicas, want 2", len(replicas))
	}
}

// TestFleetBadRequests: malformed bodies and priorities are 400s, not
// degraded answers.
func TestFleetBadRequests(t *testing.T) {
	f, _ := newTestFleet(t, 2)
	ts := httptest.NewServer(newFleetMux(f, nil))
	defer ts.Close()

	if resp, _ := postPredict(t, ts.URL, `{not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := postPredict(t, ts.URL, `{"priority":"urgent"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad priority status = %d, want 400", resp.StatusCode)
	}
}

// TestRunFlagValidation: run rejects a missing model source.
func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{"-replicas", "2"}, &strings.Builder{}); err == nil {
		t.Fatal("run without -file/-paper should fail")
	}
	if err := run([]string{"-paper", "nope"}, &strings.Builder{}); err == nil {
		t.Fatal("run with an unknown -paper should fail")
	}
}
