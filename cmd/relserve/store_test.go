package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"socrel/internal/adl"
	"socrel/internal/core"
	"socrel/internal/estimate"
	"socrel/internal/query"
	"socrel/internal/server"
	"socrel/internal/store"
)

// storeDSL is the model published through the HTTP store in these tests.
const storeDSL = `
service cpu1 cpu {
    speed 1e9
    rate 1e-10
}
service cpu2 cpu {
    speed 1e9
    rate 2e-9
}
service search composite(n) {
    attr phi 1e-6
    state work and nosharing {
        call cpu(n * log2(n)) internal 1 - (1 - phi)^n
    }
    transition Start -> work prob 1
    transition work -> End prob 1
}
assembly main {
    bind search.cpu -> cpu1
}
`

// newStoreServer builds a store-only relserve (no default assembly) over
// the given backend.
func newStoreServer(st store.Store) (*httptest.Server, *modelHost) {
	host := newModelHost(st, 8, core.Options{})
	srv := server.New(&dispatchEval{}, server.Config{Service: "search"})
	return httptest.NewServer(newMux(srv, host, nil, nil)), host
}

func doReq(t *testing.T, method, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return resp, m
}

func TestModelCRUDAndPredict(t *testing.T) {
	ts, _ := newStoreServer(store.NewMem())
	defer ts.Close()

	// Publish v1.
	resp, m := doReq(t, "PUT", ts.URL+"/models/acme/search", storeDSL)
	if resp.StatusCode != http.StatusOK || m["version"].(float64) != 1 {
		t.Fatalf("publish v1: %d %v", resp.StatusCode, m)
	}
	hash1 := m["hash"].(string)

	// Republishing identical content dedups to v1.
	resp, m = doReq(t, "PUT", ts.URL+"/models/acme/search", storeDSL)
	if resp.StatusCode != http.StatusOK || m["version"].(float64) != 1 {
		t.Fatalf("dedup publish: %d %v", resp.StatusCode, m)
	}

	// CAS publish of changed content succeeds once...
	v2 := strings.Replace(storeDSL, "attr phi 1e-6", "attr phi 2e-6", 1)
	resp, m = doReq(t, "PUT", ts.URL+"/models/acme/search?expect=1", v2)
	if resp.StatusCode != http.StatusOK || m["version"].(float64) != 2 {
		t.Fatalf("CAS publish: %d %v", resp.StatusCode, m)
	}
	// ...and conflicts the second time.
	v3 := strings.Replace(storeDSL, "attr phi 1e-6", "attr phi 3e-6", 1)
	resp, m = doReq(t, "PUT", ts.URL+"/models/acme/search?expect=1", v3)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale CAS: want 409, got %d %v", resp.StatusCode, m)
	}

	// Listing sees the model at latest=2.
	resp, m = doReq(t, "GET", ts.URL+"/models", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	models := m["models"].([]any)
	if len(models) != 1 {
		t.Fatalf("list: want 1 model, got %v", models)
	}
	entry := models[0].(map[string]any)
	if entry["ref"] != "acme/search" || entry["latest"].(float64) != 2 || entry["versions"].(float64) != 2 {
		t.Fatalf("list entry: %v", entry)
	}

	// Pinned GET returns v1 with its document and original hash.
	resp, m = doReq(t, "GET", ts.URL+"/models/acme/search?version=1", "")
	if resp.StatusCode != http.StatusOK || m["version"].(float64) != 1 || m["hash"] != hash1 {
		t.Fatalf("get v1: %d %v", resp.StatusCode, m)
	}
	if m["document"] == nil {
		t.Fatal("get v1: document missing")
	}

	// Predict against the pinned and the latest version.
	resp, m = doReq(t, "POST", ts.URL+"/predict?model=acme/search@1", `{"params":[4096]}`)
	if resp.StatusCode != http.StatusOK || m["kind"] != "exact" {
		t.Fatalf("predict @1: %d %v", resp.StatusCode, m)
	}
	p1 := m["pfail"].(float64)
	resp, m = doReq(t, "POST", ts.URL+"/predict?model=acme/search", `{"params":[4096]}`)
	if resp.StatusCode != http.StatusOK || m["kind"] != "exact" {
		t.Fatalf("predict latest: %d %v", resp.StatusCode, m)
	}
	p2 := m["pfail"].(float64)
	if p1 <= 0 || p1 >= 1 || p2 <= 0 || p2 >= 1 {
		t.Fatalf("predictions out of range: %g %g", p1, p2)
	}
	if p1 == p2 {
		t.Fatalf("v1 and v2 predictions identical (%g); version routing broken", p1)
	}

	// Batch predictions route through the same artifact.
	resp, m = doReq(t, "POST", ts.URL+"/predict/batch?model=acme/search@1", `{"param_sets":[[4096],[8192]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %v", resp.StatusCode, m)
	}
	answers := m["answers"].([]any)
	if len(answers) != 2 {
		t.Fatalf("batch: want 2 answers, got %v", answers)
	}
	if got := answers[0].(map[string]any)["pfail"].(float64); got != p1 {
		t.Fatalf("batch point 0 = %g, want %g", got, p1)
	}

	// A store-only server rejects bare /predict.
	resp, m = doReq(t, "POST", ts.URL+"/predict", `{"params":[4096]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bare predict: want 404, got %d %v", resp.StatusCode, m)
	}

	// Unknown refs and bad refs classify.
	resp, _ = doReq(t, "POST", ts.URL+"/predict?model=acme/ghost", `{"params":[4096]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: want 404, got %d", resp.StatusCode)
	}
	resp, _ = doReq(t, "POST", ts.URL+"/predict?model=no-slash", `{"params":[4096]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad ref: want 400, got %d", resp.StatusCode)
	}

	// Delete drops the model and invalidates the cache.
	resp, _ = doReq(t, "DELETE", ts.URL+"/models/acme/search", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	resp, _ = doReq(t, "GET", ts.URL+"/models/acme/search", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: want 404, got %d", resp.StatusCode)
	}
	resp, _ = doReq(t, "POST", ts.URL+"/predict?model=acme/search", `{"params":[4096]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("predict after delete: want 404, got %d", resp.StatusCode)
	}

	// The artifact cache surfaced its counters.
	resp, m = doReq(t, "GET", ts.URL+"/stats", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	cs, ok := m["artifact_cache"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing artifact_cache: %v", m)
	}
	if cs["misses"].(float64) < 2 || cs["hits"].(float64) < 1 {
		t.Fatalf("cache counters implausible: %v", cs)
	}
}

// TestStoreSurvivesRestartByteIdentical publishes through HTTP, restarts
// the whole stack over the same directory, and checks the stored model is
// byte-identical (hash equal) and still predicts.
func TestStoreSurvivesRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts1, _ := newStoreServer(st1)
	resp, m := doReq(t, "PUT", ts1.URL+"/models/acme/search", storeDSL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("publish: %d %v", resp.StatusCode, m)
	}
	hash := m["hash"].(string)
	_, m = doReq(t, "GET", ts1.URL+"/models/acme/search", "")
	doc1 := fmt.Sprintf("%v", m["document"])
	_, m = doReq(t, "POST", ts1.URL+"/predict?model=acme/search", `{"params":[4096]}`)
	p1 := m["pfail"].(float64)
	ts1.Close()
	st1.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ts2, _ := newStoreServer(st2)
	defer ts2.Close()
	resp, m = doReq(t, "GET", ts2.URL+"/models/acme/search", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get after restart: %d %v", resp.StatusCode, m)
	}
	if m["hash"] != hash {
		t.Fatalf("hash drifted across restart: %v vs %v", m["hash"], hash)
	}
	if doc2 := fmt.Sprintf("%v", m["document"]); doc2 != doc1 {
		t.Fatal("document not byte-identical across restart")
	}
	_, m = doReq(t, "POST", ts2.URL+"/predict?model=acme/search", `{"params":[4096]}`)
	if p2 := m["pfail"].(float64); p2 != p1 {
		t.Fatalf("prediction drifted across restart: %g vs %g", m["pfail"].(float64), p1)
	}
}

// TestBuilderVariantParity publishes a builder-derived provider-swap
// variant and checks the HTTP prediction against the hand-wired assembly
// to 1e-12 — the acceptance bar for the query/builder + store + serve
// path composing end to end.
func TestBuilderVariantParity(t *testing.T) {
	ts, _ := newStoreServer(store.NewMem())
	defer ts.Close()

	doc, err := adl.ParseDSL(storeDSL)
	if err != nil {
		t.Fatal(err)
	}
	q := query.From(doc)
	vdoc, err := q.Variant("main").Named("alt").
		Rebind(q.Service("search").Role("cpu"), query.To(q.Service("cpu2"))).
		BuildDocument()
	if err != nil {
		t.Fatal(err)
	}
	vjson, err := adl.MarshalJSON(vdoc)
	if err != nil {
		t.Fatal(err)
	}
	resp, m := doReq(t, "PUT", ts.URL+"/models/acme/search-alt", string(vjson))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("publish variant: %d %v", resp.StatusCode, m)
	}

	resp, m = doReq(t, "POST", ts.URL+"/predict?model=acme/search-alt&assembly=alt", `{"params":[4096]}`)
	if resp.StatusCode != http.StatusOK || m["kind"] != "exact" {
		t.Fatalf("predict variant: %d %v", resp.StatusCode, m)
	}
	got := m["pfail"].(float64)

	hand, err := adl.ParseDSL(storeDSL + "\nassembly alt {\n    bind search.cpu -> cpu2\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	handAsm, err := hand.BuildAssembly("alt")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := core.New(handAsm, core.Options{}).Reliability("search", 4096)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - rel
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("variant over HTTP %.15g vs hand-wired %.15g (diff %g)", got, want, math.Abs(got-want))
	}
}

// TestPublishOversizeRejected: a model body past the 4 MiB limit is
// refused whole with 413; nothing is published. A body cut at the limit
// could still parse, silently dropping everything after the cut.
func TestPublishOversizeRejected(t *testing.T) {
	ts, host := newStoreServer(store.NewMem())
	defer ts.Close()

	var body strings.Builder
	body.WriteString(storeDSL)
	pad := "# " + strings.Repeat("x", 1021) + "\n"
	for body.Len() < 4<<20 {
		body.WriteString(pad)
	}
	body.WriteString("assembly alt {\n    bind search.cpu -> cpu2\n}\n")

	resp, m := doReq(t, "PUT", ts.URL+"/models/acme/big", body.String())
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize publish: want 413, got %d %v", resp.StatusCode, m)
	}
	if _, err := host.st.Get(store.Ref{Tenant: "acme", Model: "big"}); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("oversize publish stored something: err = %v", err)
	}
}

// TestStoreOnlyBarePredict404: on a server without a default model, bare
// /predict and /predict/batch are refused before admission, so they
// never count as offered load or as provider failures in the estimator.
func TestStoreOnlyBarePredict404(t *testing.T) {
	est, err := estimate.New(estimate.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(&dispatchEval{}, server.Config{Service: "search", OnOutcome: estimateFeed(est)})
	ts := httptest.NewServer(newMux(srv, newModelHost(store.NewMem(), 8, core.Options{}), est, nil))
	defer ts.Close()

	for _, path := range []string{"/predict", "/predict/batch"} {
		resp, m := doReq(t, "POST", ts.URL+path, `{"params":[4096],"param_sets":[[4096]]}`)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("bare %s: want 404, got %d %v", path, resp.StatusCode, m)
		}
	}
	if n := est.Stats().Observed; n != 0 {
		t.Fatalf("estimator observed %d outcomes from rejected requests, want 0", n)
	}
	if n := srv.Stats().Offered; n != 0 {
		t.Fatalf("server offered %d rejected requests, want 0", n)
	}
}
