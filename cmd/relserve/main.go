// Command relserve serves reliability predictions over HTTP through the
// overload-resilient serving layer: admission control, AIMD concurrency
// limiting, priority-class load shedding, request hedging, and the
// graceful-degradation ladder (exact → stale → bounded → unavailable).
//
// Usage:
//
//	relserve -paper local -service search -listen :8080
//	relserve -file system.adl -assembly local -service search -listen :8080
//	relserve -store ./models -service search -listen :8080
//
// Endpoints:
//
//	POST /predict        {"service":"search","params":[1,4096,1],"priority":"interactive","timeout_ms":250}
//	POST /predict/batch  {"service":"search","param_sets":[[1,4096,1],[2,4096,1]],"priority":"batch"}
//	GET  /healthz        200 while accepting load, 503 at overload
//	GET  /stats          admission/shedding/hedging counters, artifact-cache and estimator counters
//	GET  /estimates      per-bucket fitted failure rates with confidence intervals and drift verdicts
//
// Every completed evaluation also feeds an online failure-parameter
// estimator (windowed MLE per evaluated service), so /estimates shows
// what the serving tier has actually observed next to what the model
// predicts.
//
// With a model store (-store DIR for the durable disk store, or the
// default in-memory store) the server is multi-tenant:
//
//	GET    /models                        list every stored model
//	PUT    /models/{tenant}/{model}       publish a version (body: ADL DSL or JSON; ?expect=N for CAS)
//	GET    /models/{tenant}/{model}       fetch a version (?version=N, default latest)
//	DELETE /models/{tenant}/{model}       drop a model and its versions
//	POST   /predict?model=tenant/m@3      predict against a stored version (?assembly=NAME)
//
// /predict?model= resolves through an LRU cache of compiled artifacts;
// omitting @version pins nothing and re-resolves latest per request,
// while @N keeps serving that exact version no matter what is published.
//
// Every /predict response carries a "kind" tag; degraded answers (stale,
// bounded, unavailable) also carry the causing "error". Shed requests
// return 503 with a Retry-After hint.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"socrel/internal/adl"
	"socrel/internal/assembly"
	"socrel/internal/core"
	"socrel/internal/estimate"
	"socrel/internal/monitor"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
	"socrel/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "relserve:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("relserve", flag.ContinueOnError)
	file := fs.String("file", "", "ADL file (.adl DSL or .json); '-' reads stdin")
	asmName := fs.String("assembly", "", "assembly name within the document")
	paper := fs.String("paper", "", "use the built-in paper example: 'local' or 'remote'")
	service := fs.String("service", "search", "default service to evaluate")
	listen := fs.String("listen", ":8080", "address to listen on")
	queueCap := fs.Int("queue", 64, "admission queue capacity")
	maxConc := fs.Int("max-concurrency", 0, "AIMD limiter ceiling (0 = 4×GOMAXPROCS)")
	latencyTarget := fs.Duration("latency-target", 50*time.Millisecond, "per-evaluation latency the limiter steers toward")
	noHedge := fs.Bool("no-hedge", false, "disable request hedging")
	fixedPoint := fs.Bool("fixedpoint", false, "solve recursive assemblies by fixed-point iteration")
	storeDir := fs.String("store", "", "model store directory (':memory:' = volatile in-memory store)")
	cacheCap := fs.Int("cache", 64, "compiled-artifact cache capacity")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Second, "how long SIGTERM waits for in-flight work before exiting")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := core.Options{}
	if *fixedPoint {
		opts.Cycles = core.CycleFixedPoint
	}

	if *file == "" && *paper == "" && *storeDir == "" {
		return errors.New("nothing to serve: pass -file or -paper for a default model, and/or -store for a model store")
	}
	var st store.Store
	if *storeDir != "" && *storeDir != ":memory:" {
		disk, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		st = disk
	} else {
		st = store.NewMem()
	}
	defer st.Close()
	host := newModelHost(st, *cacheCap, opts)

	// A default assembly is optional: a store-only server answers
	// /predict?model= requests and 404s bare /predict calls.
	var eval server.Evaluator
	mode := "store-only"
	if *file != "" || *paper != "" {
		asm, err := loadAssembly(*file, *asmName, *paper)
		if err != nil {
			return err
		}
		eval, mode, err = buildEvaluator(asm, opts, *service)
		if err != nil {
			return err
		}
	}
	est, err := estimate.New(estimate.Config{})
	if err != nil {
		return err
	}
	srv := server.New(&dispatchEval{fallback: eval}, server.Config{
		Service:       *service,
		QueueCapacity: *queueCap,
		Limiter:       server.LimiterConfig{Max: *maxConc, LatencyTarget: *latencyTarget},
		Hedge:         server.HedgeConfig{Disabled: *noHedge},
		OnOutcome:     estimateFeed(est),
	})

	fmt.Fprintf(out, "relserve: serving %q (%s engine) on %s\n", *service, mode, *listen)
	ca, _ := eval.(*core.CompiledAssembly)
	hs := &http.Server{Addr: *listen, Handler: newMux(srv, host, est, ca)}

	// Graceful shutdown: on SIGTERM/SIGINT the admission layer closes
	// first — new requests shed as 503 + Retry-After while the listener
	// stays up — in-flight and queued work finishes within the drain
	// deadline, and only then does the HTTP server stop.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "relserve: draining")
	if err := drainAndReport(srv, out, *drainTimeout); err != nil {
		fmt.Fprintln(out, "relserve: drain:", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	return hs.Shutdown(shutCtx)
}

// drainAndReport drains the serving layer and prints the final stats
// line — the last evidence a terminated replica leaves behind. Split
// from run so tests drive it on a fake clock.
func drainAndReport(srv *server.Server, out io.Writer, timeout time.Duration) error {
	st, err := srv.Drain(context.Background(), timeout)
	fmt.Fprintf(out, "relserve: final stats: offered=%d exact=%d stale=%d bounded=%d unavailable=%d shed_draining=%d inflight=%d queue_depth=%d\n",
		st.Offered, st.Exact, st.Stale, st.Bounded, st.Unavailable, st.ShedDraining, st.Inflight, st.QueueDepth)
	return err
}

// modelHost bundles the model store with its compiled-artifact cache.
type modelHost struct {
	st    store.Store
	cache *store.ArtifactCache
	opts  core.Options
}

func newModelHost(st store.Store, cacheCap int, opts core.Options) *modelHost {
	return &modelHost{st: st, cache: store.NewArtifactCache(cacheCap), opts: opts}
}

// modelCtxKey carries the request's compiled artifact from the HTTP
// handler through the admission-controlled server to the evaluator, so
// every tenant model is served with full admission control, hedging, and
// degradation without one server instance per model.
type modelCtxKey struct{}

// dispatchEval routes an evaluation to the compiled artifact selected by
// the request (via modelCtxKey), falling back to the default assembly's
// evaluator when the request names no model.
type dispatchEval struct {
	fallback server.Evaluator
}

// errNoDefaultModel is returned for bare /predict calls on a store-only
// server.
var errNoDefaultModel = errors.New("no default assembly loaded; select a stored model with ?model=tenant/name[@version]")

func (d *dispatchEval) resolve(ctx context.Context) (server.Evaluator, error) {
	if ca, ok := ctx.Value(modelCtxKey{}).(*core.CompiledAssembly); ok && ca != nil {
		return ca, nil
	}
	if d.fallback == nil {
		return nil, errNoDefaultModel
	}
	return d.fallback, nil
}

func (d *dispatchEval) PfailCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	eval, err := d.resolve(ctx)
	if err != nil {
		return 0, err
	}
	return eval.PfailCtx(ctx, service, params...)
}

// PfailBatchCtx keeps the batch fast path: when the effective evaluator
// has a batch kernel it is used directly, otherwise the server's
// per-point fallback takes over.
func (d *dispatchEval) PfailBatchCtx(ctx context.Context, service string, paramSets [][]float64) ([]float64, error) {
	eval, err := d.resolve(ctx)
	if err != nil {
		return nil, err
	}
	if be, ok := eval.(server.BatchEvaluator); ok {
		return be.PfailBatchCtx(ctx, service, paramSets)
	}
	// Mirror the batch partial-results contract: NaN at failed points,
	// lowest-indexed error reported.
	out := make([]float64, len(paramSets))
	for i := range out {
		out[i] = math.NaN()
	}
	var firstErr error
	for i, params := range paramSets {
		if err := ctx.Err(); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("batch point %d: %w: %w", i, core.ErrCanceled, err)
			}
			break
		}
		p, err := eval.PfailCtx(ctx, service, params...)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("batch point %d: %w", i, err)
			}
			continue
		}
		out[i] = p
	}
	return out, firstErr
}

// loadAssembly resolves the -file / -paper flags into an assembly.
func loadAssembly(file, asmName, paper string) (*assembly.Assembly, error) {
	switch {
	case paper != "":
		p := assembly.DefaultPaperParams()
		switch paper {
		case "local":
			return assembly.LocalAssembly(p)
		case "remote":
			return assembly.RemoteAssembly(p)
		default:
			return nil, fmt.Errorf("unknown -paper value %q (want local or remote)", paper)
		}
	case file != "":
		var data []byte
		var err error
		if file == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(file)
		}
		if err != nil {
			return nil, err
		}
		var doc *adl.Document
		if strings.HasPrefix(strings.TrimSpace(string(data)), "{") {
			doc, err = adl.UnmarshalJSON(data)
		} else {
			doc, err = adl.ParseDSL(string(data))
		}
		if err != nil {
			return nil, err
		}
		if asmName == "" {
			names := doc.AssemblyNames()
			if len(names) != 1 {
				return nil, fmt.Errorf("document defines assemblies %v; pick one with -assembly", names)
			}
			asmName = names[0]
		}
		return doc.BuildAssembly(asmName)
	default:
		return nil, fmt.Errorf("either -file or -paper is required")
	}
}

// buildEvaluator compiles the assembly when possible (the compiled
// engine is safe for the server's concurrency), with the parametric
// closed-form layer on top so /predict/batch points are pure expression
// evaluations, and otherwise falls back to a mutex-serialized interpreted
// evaluator.
func buildEvaluator(asm *assembly.Assembly, opts core.Options, service string) (server.Evaluator, string, error) {
	ca, err := core.CompileParametric(asm, opts, core.ParametricOptions{}, service)
	if err == nil {
		if st := ca.ParametricStats(); st.Outputs > 0 {
			return ca, "parametric", nil
		}
		return ca, "compiled", nil
	}
	if !errors.Is(err, core.ErrNotCompilable) {
		return nil, "", err
	}
	return &serializedEval{ev: core.New(asm, opts)}, "interpreted", nil
}

// serializedEval guards the single-goroutine interpreted evaluator with
// a mutex: correctness over parallelism on the fallback path. The
// admission controller sees the serialization as latency and sizes the
// window down accordingly.
type serializedEval struct {
	mu sync.Mutex
	ev *core.Evaluator
}

func (s *serializedEval) PfailCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ev.PfailCtx(ctx, service, params...)
}

// predictRequest is the wire form of one /predict call.
type predictRequest struct {
	Service   string      `json:"service,omitempty"`
	Params    []float64   `json:"params,omitempty"`
	ParamSets [][]float64 `json:"param_sets,omitempty"`
	Priority  string      `json:"priority,omitempty"`
	TimeoutMS int64       `json:"timeout_ms,omitempty"`
}

// predictResponse is the wire form of one answer. Kind is always set;
// Error is present exactly when the answer is degraded.
type predictResponse struct {
	Kind        string   `json:"kind"`
	Pfail       float64  `json:"pfail"`
	Reliability float64  `json:"reliability"`
	Lo          *float64 `json:"lo,omitempty"`
	Hi          *float64 `json:"hi,omitempty"`
	AgeMS       int64    `json:"age_ms,omitempty"`
	Error       string   `json:"error,omitempty"`
}

func toResponse(a socruntime.Answer) predictResponse {
	r := predictResponse{
		Kind:        a.Kind.String(),
		Pfail:       a.Pfail,
		Reliability: a.Reliability(),
	}
	if a.Kind == socruntime.Bounded {
		lo, hi := a.Lo, a.Hi
		r.Lo, r.Hi = &lo, &hi
	}
	if a.Age > 0 {
		r.AgeMS = a.Age.Milliseconds()
	}
	if a.Err != nil {
		r.Error = a.Err.Error()
	}
	return r
}

func parsePriority(s string) (server.Priority, error) {
	switch s {
	case "", "interactive":
		return server.Interactive, nil
	case "batch":
		return server.Batch, nil
	case "best-effort":
		return server.BestEffort, nil
	default:
		return 0, fmt.Errorf("unknown priority %q (want interactive, batch, or best-effort)", s)
	}
}

// statusFor maps an answer to its HTTP status: any usable value (exact,
// stale, bounded) is a 200, shed or failed requests are 503, and other
// evaluation failures are 500.
func statusFor(a socruntime.Answer) int {
	if a.Kind != socruntime.Unavailable {
		return http.StatusOK
	}
	if errors.Is(a.Err, server.ErrOverloaded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// modelContext resolves an optional ?model=tenant/name[@version] query
// parameter into a request context carrying the compiled artifact, plus
// the stale-store scope (the concrete resolved version, so degraded
// answers never cross models or versions). The bool reports whether the
// response has already been written (error).
func modelContext(w http.ResponseWriter, r *http.Request, host *modelHost) (context.Context, string, bool) {
	ctx := r.Context()
	m := r.URL.Query().Get("model")
	if m == "" {
		return ctx, "", false
	}
	if host == nil {
		httpError(w, http.StatusNotFound, errors.New("no model store configured"))
		return nil, "", true
	}
	ref, err := store.ParseRef(m)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return nil, "", true
	}
	ca, rec, err := host.cache.Load(host.st, ref, r.URL.Query().Get("assembly"), host.opts)
	if err != nil {
		httpError(w, storeStatus(err), err)
		return nil, "", true
	}
	scope := rec.Ref.String()
	if asm := r.URL.Query().Get("assembly"); asm != "" {
		scope += "#" + asm
	}
	return context.WithValue(ctx, modelCtxKey{}, ca), scope, false
}

// estimateFeed adapts the server's outcome stream into estimator
// observations: the evaluated service is the estimation bucket's
// provider and the request scope its context.
func estimateFeed(est *estimate.Estimator) func(server.Outcome) {
	return func(o server.Outcome) {
		est.Observe(estimate.Outcome{
			Provider: o.Service,
			Context:  o.Scope,
			Failed:   !o.Success,
			Latency:  o.Latency,
			At:       o.At,
		})
	}
}

// estimateMeta is the wire form of one estimation bucket.
type estimateMeta struct {
	Provider     string  `json:"provider"`
	Context      string  `json:"context,omitempty"`
	Load         int     `json:"load,omitempty"`
	Rate         float64 `json:"rate"`
	Lo           float64 `json:"lo"`
	Hi           float64 `json:"hi"`
	Observations int     `json:"observations"`
	Failures     int     `json:"failures"`
	MeanLatencyS float64 `json:"mean_latency_s,omitempty"`
	Bound        float64 `json:"bound,omitempty"`
	Drift        string  `json:"drift,omitempty"`
	Direction    int     `json:"direction,omitempty"`
}

func toEstimateMeta(b estimate.BucketEstimate) estimateMeta {
	m := estimateMeta{
		Provider:     b.Key.Provider,
		Context:      b.Key.Context,
		Load:         b.Key.Load,
		Rate:         b.Estimate.Rate,
		Lo:           b.Estimate.Lo,
		Hi:           b.Estimate.Hi,
		Observations: b.Estimate.Observations,
		Failures:     b.Estimate.Failures,
		MeanLatencyS: b.Estimate.MeanLatency,
		Bound:        b.Bound,
		Direction:    b.Direction,
	}
	if b.Drift != monitor.Verdict(0) {
		m.Drift = b.Drift.String()
	}
	return m
}

// registerEstimateRoutes wires the estimator's read surface.
func registerEstimateRoutes(mux *http.ServeMux, est *estimate.Estimator) {
	mux.HandleFunc("GET /estimates", func(w http.ResponseWriter, r *http.Request) {
		all := est.All()
		out := make([]estimateMeta, 0, len(all))
		for _, b := range all {
			if !b.OK && b.Estimate.Observations == 0 {
				continue
			}
			out = append(out, toEstimateMeta(b))
		}
		writeJSON(w, http.StatusOK, map[string]any{"estimates": out})
	})
}

// newMux builds the HTTP handler over an admission-controlled server, a
// model host, and an optional estimator. Split from run so tests drive
// it with httptest. ca, when non-nil, is the default assembly's compiled
// artifact; /stats then reports which evaluation path (closed-form
// parametric vs numeric kernel) served the traffic.
func newMux(srv *server.Server, host *modelHost, est *estimate.Estimator, ca *core.CompiledAssembly) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		var req predictRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		pri, err := parsePriority(req.Priority)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		ctx, scope, done := modelContext(w, r, host)
		if done {
			return
		}
		ans := srv.Serve(ctx, server.Request{
			Service:  req.Service,
			Scope:    scope,
			Params:   req.Params,
			Priority: pri,
			Timeout:  time.Duration(req.TimeoutMS) * time.Millisecond,
		})
		status := statusFor(ans)
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, status, toResponse(ans))
	})

	mux.HandleFunc("POST /predict/batch", func(w http.ResponseWriter, r *http.Request) {
		var req predictRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		pri, err := parsePriority(req.Priority)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if pri == server.Interactive && req.Priority == "" {
			pri = server.Batch // batches default to the batch class
		}
		ctx, scope, done := modelContext(w, r, host)
		if done {
			return
		}
		answers := srv.ServeBatch(ctx, server.BatchRequest{
			Service:   req.Service,
			Scope:     scope,
			ParamSets: req.ParamSets,
			Priority:  pri,
			Timeout:   time.Duration(req.TimeoutMS) * time.Millisecond,
		})
		resp := make([]predictResponse, len(answers))
		status := http.StatusOK
		exact := 0
		for i, a := range answers {
			resp[i] = toResponse(a)
			if a.Kind == socruntime.Exact {
				exact++
			}
		}
		// A batch where nothing was usable reports the shed status.
		if len(answers) > 0 && exact == 0 && statusFor(answers[0]) == http.StatusServiceUnavailable {
			status = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, status, map[string]any{"answers": resp})
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		sat := srv.Saturation()
		status := http.StatusOK
		state := "ok"
		if sat == server.SatOverload {
			status = http.StatusServiceUnavailable
			state = "overloaded"
		}
		writeJSON(w, status, map[string]string{"status": state, "saturation": sat.String()})
	})

	if host != nil {
		registerModelRoutes(mux, host)
	}
	if est != nil {
		registerEstimateRoutes(mux, est)
	}

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		st := srv.Stats()
		stats := map[string]any{
			"offered":              st.Offered,
			"admitted":             st.Admitted,
			"exact":                st.Exact,
			"stale":                st.Stale,
			"bounded":              st.Bounded,
			"unavailable":          st.Unavailable,
			"shed_queue_full":      st.ShedQueueFull,
			"shed_class":           st.ShedClass,
			"shed_deadline":        st.ShedDeadline,
			"shed_draining":        st.ShedDraining,
			"draining":             srv.Draining(),
			"swept_expired":        st.SweptExpired,
			"canceled_waiting":     st.CanceledWaiting,
			"hedges_launched":      st.HedgesLaunched,
			"hedge_wins":           st.HedgeWins,
			"limit":                st.Limit,
			"inflight":             st.Inflight,
			"queue_depth":          st.QueueDepth,
			"estimated_latency_us": st.EstimatedLatency.Microseconds(),
			"hedge_delay_us":       st.HedgeDelay.Microseconds(),
			"saturation":           st.Saturation.String(),
		}
		if host != nil {
			cs := host.cache.Stats()
			stats["artifact_cache"] = map[string]any{
				"hits":      cs.Hits,
				"misses":    cs.Misses,
				"evictions": cs.Evictions,
				"entries":   cs.Entries,
			}
		}
		if est != nil {
			es := est.Stats()
			stats["estimator"] = map[string]any{
				"observed":         es.Observed,
				"keys":             es.Keys,
				"drift_violations": es.DriftViolations,
				"merged":           es.Merged,
				"bad_merges":       es.BadMerges,
			}
		}
		if ca != nil {
			ps := ca.ParametricStats()
			stats["parametric"] = map[string]any{
				"outputs":           ps.Outputs,
				"fallbacks":         ps.Fallbacks,
				"parametric_points": ps.ParametricPoints,
				"numeric_points":    ps.NumericPoints,
				"gradient_points":   ps.GradientPoints,
			}
		}
		writeJSON(w, http.StatusOK, stats)
	})

	return mux
}

// storeStatus maps a store error to its HTTP status.
func storeStatus(err error) int {
	switch {
	case errors.Is(err, store.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, store.ErrVersionConflict):
		return http.StatusConflict
	case errors.Is(err, store.ErrBadName):
		return http.StatusBadRequest
	case errors.Is(err, store.ErrCorrupt):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// modelMeta is the wire form of one stored model in listings.
type modelMeta struct {
	Ref      string `json:"ref"`
	Tenant   string `json:"tenant"`
	Model    string `json:"model"`
	Latest   int    `json:"latest"`
	Versions int    `json:"versions"`
	Hash     string `json:"hash"`
}

// recordMeta is the wire form of one stored version.
type recordMeta struct {
	Ref       string          `json:"ref"`
	Tenant    string          `json:"tenant"`
	Model     string          `json:"model"`
	Version   int             `json:"version"`
	Hash      string          `json:"hash"`
	CreatedAt time.Time       `json:"created_at"`
	Comment   string          `json:"comment,omitempty"`
	Document  json.RawMessage `json:"document,omitempty"`
}

func toRecordMeta(rec store.Record, withDoc bool) recordMeta {
	m := recordMeta{
		Ref:       rec.Ref.String(),
		Tenant:    rec.Tenant,
		Model:     rec.Model,
		Version:   rec.Version,
		Hash:      rec.Hash,
		CreatedAt: rec.CreatedAt,
		Comment:   rec.Comment,
	}
	if withDoc {
		m.Document = json.RawMessage(rec.Source)
	}
	return m
}

// registerModelRoutes wires the model-store CRUD under /models.
func registerModelRoutes(mux *http.ServeMux, host *modelHost) {
	mux.HandleFunc("GET /models", func(w http.ResponseWriter, r *http.Request) {
		tenants, err := host.st.Tenants()
		if err != nil {
			httpError(w, storeStatus(err), err)
			return
		}
		models := []modelMeta{}
		for _, tenant := range tenants {
			names, err := host.st.Models(tenant)
			if err != nil {
				httpError(w, storeStatus(err), err)
				return
			}
			for _, name := range names {
				versions, err := host.st.Versions(tenant, name)
				if err != nil || len(versions) == 0 {
					continue // deleted between listing and read
				}
				latest := versions[len(versions)-1]
				models = append(models, modelMeta{
					Ref:      tenant + "/" + name,
					Tenant:   tenant,
					Model:    name,
					Latest:   latest.Version,
					Versions: len(versions),
					Hash:     latest.Hash,
				})
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{"models": models})
	})

	mux.HandleFunc("GET /models/{tenant}/{model}", func(w http.ResponseWriter, r *http.Request) {
		ref := store.Ref{Tenant: r.PathValue("tenant"), Model: r.PathValue("model")}
		if v := r.URL.Query().Get("version"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad version %q (want a positive integer)", v))
				return
			}
			ref.Version = n
		}
		rec, err := host.st.Get(ref)
		if err != nil {
			httpError(w, storeStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, toRecordMeta(rec, true))
	})

	mux.HandleFunc("PUT /models/{tenant}/{model}", func(w http.ResponseWriter, r *http.Request) {
		tenant, model := r.PathValue("tenant"), r.PathValue("model")
		popts := store.PublishOptions{Comment: r.URL.Query().Get("comment")}
		if e := r.URL.Query().Get("expect"); e != "" {
			n, err := strconv.Atoi(e)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad expect %q (want an integer; -1 = must not exist)", e))
				return
			}
			popts.ExpectedLatest = n
		}
		data, err := io.ReadAll(io.LimitReader(r.Body, 4<<20))
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		var doc *adl.Document
		if strings.HasPrefix(strings.TrimSpace(string(data)), "{") {
			doc, err = adl.UnmarshalJSON(data)
		} else {
			doc, err = adl.ParseDSL(string(data))
		}
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, err)
			return
		}
		rec, err := host.st.Publish(tenant, model, doc, popts)
		if err != nil {
			httpError(w, storeStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, toRecordMeta(rec, false))
	})

	mux.HandleFunc("DELETE /models/{tenant}/{model}", func(w http.ResponseWriter, r *http.Request) {
		tenant, model := r.PathValue("tenant"), r.PathValue("model")
		if err := host.st.Delete(tenant, model); err != nil {
			httpError(w, storeStatus(err), err)
			return
		}
		// Frees the model's artifacts; correctness does not depend on it,
		// since cache keys carry the content hash.
		host.cache.Invalidate(tenant, model)
		writeJSON(w, http.StatusOK, map[string]string{"deleted": tenant + "/" + model})
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
