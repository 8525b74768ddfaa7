// Command relserve serves reliability predictions over HTTP through the
// overload-resilient serving layer: admission control, AIMD concurrency
// limiting, priority-class load shedding, and the graceful-degradation
// ladder (exact → stale → unavailable).
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
//	GET  /stats          admission and shedding counters, artifact-cache and estimator counters
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
// unavailable) also carry the causing "error". Shed requests
// return 503 with a Retry-After hint; bodies past 4 MiB get 413. The wire
// layer is internal/httpapi, shared with relfleet.
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
	"strconv"
	"time"

	"socrel/internal/adl"
	"socrel/internal/core"
	"socrel/internal/estimate"
	"socrel/internal/httpapi"
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
	// /predict?model= requests and refuses bare /predict and
	// /predict/batch calls with 404 before admission.
	var ca *core.CompiledAssembly
	mode := "store-only"
	if *file != "" || *paper != "" {
		asm, err := adl.LoadAssembly(*file, *asmName, *paper)
		if err != nil {
			return err
		}
		eng, err := httpapi.NewEngine(asm, opts, *service)
		if err != nil {
			return err
		}
		host.def, ca, mode = eng.Evaluator(), eng.Compiled, eng.Mode
	}
	est, err := estimate.New(estimate.Config{})
	if err != nil {
		return err
	}
	srv := server.New(&dispatchEval{}, server.Config{
		Service:       *service,
		QueueCapacity: *queueCap,
		Limiter:       server.LimiterConfig{Max: *maxConc, LatencyTarget: *latencyTarget},
		OnOutcome:     estimateFeed(est),
	})

	fmt.Fprintf(out, "relserve: serving %q (%s engine) on %s\n", *service, mode, *listen)
	// Graceful shutdown: on SIGTERM/SIGINT the admission layer closes
	// first, in-flight and queued work finishes within the drain
	// deadline, and only then does the HTTP server stop.
	return httpapi.ListenAndDrain(&http.Server{Addr: *listen, Handler: newMux(srv, host, est, ca)}, func() {
		fmt.Fprintln(out, "relserve: draining")
		if err := drainAndReport(srv, out, *drainTimeout); err != nil {
			fmt.Fprintln(out, "relserve: drain:", err)
		}
	})
}

// drainAndReport drains the serving layer and prints the final stats
// line — the last evidence a terminated replica leaves behind. Split
// from run so tests drive it on a fake clock.
func drainAndReport(srv *server.Server, out io.Writer, timeout time.Duration) error {
	st, err := srv.Drain(context.Background(), timeout)
	fmt.Fprintf(out, "relserve: final stats: offered=%d exact=%d stale=%d unavailable=%d shed_draining=%d inflight=%d queue_depth=%d\n",
		st.Offered, st.Exact, st.Stale, st.Unavailable, st.ShedDraining, st.Inflight, st.QueueDepth)
	return err
}

// modelHost bundles the model store with its compiled-artifact cache.
type modelHost struct {
	st    store.Store
	cache *store.ArtifactCache
	opts  core.Options
	// def evaluates requests that name no stored model: the -file or
	// -paper assembly, nil on a store-only server.
	def server.Evaluator
}

func newModelHost(st store.Store, cacheCap int, opts core.Options) *modelHost {
	return &modelHost{st: st, cache: store.NewArtifactCache(cacheCap), opts: opts}
}

// modelCtxKey carries the request's evaluator (a stored model's compiled
// artifact, or the default assembly's evaluator) from the HTTP handler
// through the admission-controlled server to dispatchEval, so every
// tenant model is served with full admission control and degradation
// without one server instance per model.
type modelCtxKey struct{}

// dispatchEval routes an evaluation to the evaluator the request
// selected via modelCtxKey.
type dispatchEval struct{}

// errNoDefaultModel refuses bare /predict calls on a store-only server.
var errNoDefaultModel = errors.New("no default assembly loaded; select a stored model with ?model=tenant/name[@version]")

func (d *dispatchEval) resolve(ctx context.Context) (server.Evaluator, error) {
	if eval, ok := ctx.Value(modelCtxKey{}).(server.Evaluator); ok {
		return eval, nil
	}
	return nil, errNoDefaultModel
}

func (d *dispatchEval) PfailCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	eval, err := d.resolve(ctx)
	if err != nil {
		return 0, err
	}
	return eval.PfailCtx(ctx, service, params...)
}

// Inline forwards the question to the evaluator the request selected,
// so the server skips the deadline watcher for a point and answers a
// shed Stale exactly when it would for that evaluator.
func (d *dispatchEval) Inline(ctx context.Context, service string) bool {
	eval, err := d.resolve(ctx)
	if err != nil {
		return false
	}
	ie, ok := eval.(server.InlineEvaluator)
	return ok && ie.Inline(ctx, service)
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

// modelContext resolves an optional ?model=tenant/name[@version] query
// parameter into a request context carrying the compiled artifact, plus
// the serving scope (the concrete resolved version, so one model's
// last exact answer never dates another model's or version's Stale
// answers). A request naming no model
// carries the default evaluator, and is refused with 404 before
// admission when there is none. The bool reports whether the response
// has already been written (error).
func modelContext(w http.ResponseWriter, r *http.Request, host *modelHost) (context.Context, string, bool) {
	ctx := r.Context()
	m := r.URL.Query().Get("model")
	if m == "" {
		if host == nil {
			return ctx, "", false
		}
		if host.def == nil {
			httpapi.Error(w, http.StatusNotFound, errNoDefaultModel)
			return nil, "", true
		}
		return context.WithValue(ctx, modelCtxKey{}, host.def), "", false
	}
	if host == nil {
		httpapi.Error(w, http.StatusNotFound, errors.New("no model store configured"))
		return nil, "", true
	}
	ref, err := store.ParseRef(m)
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, err)
		return nil, "", true
	}
	ca, rec, err := host.cache.Load(host.st, ref, r.URL.Query().Get("assembly"), host.opts)
	if err != nil {
		httpapi.Error(w, storeStatus(err), err)
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

// newMux builds the HTTP handler over an admission-controlled server, a
// model host, and an optional estimator. Split from run so tests drive
// it with httptest. ca, when non-nil, is the default assembly's compiled
// artifact; /stats then reports which evaluation path (closed-form
// parametric vs numeric kernel) served the traffic.
func newMux(srv *server.Server, host *modelHost, est *estimate.Estimator, ca *core.CompiledAssembly) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		req, pri, ok := httpapi.Decode(w, r, server.Interactive)
		if !ok {
			return
		}
		ctx, scope, done := modelContext(w, r, host)
		if done {
			return
		}
		req.Scope = scope
		httpapi.WriteAnswer(w, srv.Serve(ctx, req.Point(pri)))
	})

	mux.HandleFunc("POST /predict/batch", func(w http.ResponseWriter, r *http.Request) {
		req, pri, ok := httpapi.Decode(w, r, server.Batch)
		if !ok {
			return
		}
		ctx, scope, done := modelContext(w, r, host)
		if done {
			return
		}
		req.Scope = scope
		httpapi.WriteBatch(w, srv.ServeBatch(ctx, req.Batch(pri)))
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		sat := srv.Saturation()
		status := http.StatusOK
		state := "ok"
		if sat == server.SatOverload {
			status = http.StatusServiceUnavailable
			state = "overloaded"
		}
		httpapi.WriteJSON(w, status, map[string]string{"status": state, "saturation": sat.String()})
	})

	if host != nil {
		registerModelRoutes(mux, host)
	}
	if est != nil {
		mux.HandleFunc("GET /estimates", func(w http.ResponseWriter, r *http.Request) {
			httpapi.WriteJSON(w, http.StatusOK, map[string]any{"estimates": httpapi.Estimates(est)})
		})
	}

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		stats := httpapi.ServerStats(srv.Stats(), srv.Draining(), est)
		if host != nil {
			stats["artifact_cache"] = host.cache.Stats()
		}
		if ca != nil {
			stats["parametric"] = ca.ParametricStats()
		}
		httpapi.WriteJSON(w, http.StatusOK, stats)
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
			httpapi.Error(w, storeStatus(err), err)
			return
		}
		models := []modelMeta{}
		for _, tenant := range tenants {
			names, err := host.st.Models(tenant)
			if err != nil {
				httpapi.Error(w, storeStatus(err), err)
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
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"models": models})
	})

	mux.HandleFunc("GET /models/{tenant}/{model}", func(w http.ResponseWriter, r *http.Request) {
		ref := store.Ref{Tenant: r.PathValue("tenant"), Model: r.PathValue("model")}
		if v := r.URL.Query().Get("version"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				httpapi.Error(w, http.StatusBadRequest, fmt.Errorf("bad version %q (want a positive integer)", v))
				return
			}
			ref.Version = n
		}
		rec, err := host.st.Get(ref)
		if err != nil {
			httpapi.Error(w, storeStatus(err), err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, toRecordMeta(rec, true))
	})

	mux.HandleFunc("PUT /models/{tenant}/{model}", func(w http.ResponseWriter, r *http.Request) {
		tenant, model := r.PathValue("tenant"), r.PathValue("model")
		popts := store.PublishOptions{Comment: r.URL.Query().Get("comment")}
		if e := r.URL.Query().Get("expect"); e != "" {
			n, err := strconv.Atoi(e)
			if err != nil {
				httpapi.Error(w, http.StatusBadRequest, fmt.Errorf("bad expect %q (want an integer; -1 = must not exist)", e))
				return
			}
			popts.ExpectedLatest = n
		}
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, httpapi.MaxBodyBytes))
		if err != nil {
			httpapi.BodyError(w, err)
			return
		}
		doc, err := adl.Parse(data)
		if err != nil {
			httpapi.Error(w, http.StatusUnprocessableEntity, err)
			return
		}
		rec, err := host.st.Publish(tenant, model, doc, popts)
		if err != nil {
			httpapi.Error(w, storeStatus(err), err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, toRecordMeta(rec, false))
	})

	mux.HandleFunc("DELETE /models/{tenant}/{model}", func(w http.ResponseWriter, r *http.Request) {
		tenant, model := r.PathValue("tenant"), r.PathValue("model")
		if err := host.st.Delete(tenant, model); err != nil {
			httpapi.Error(w, storeStatus(err), err)
			return
		}
		// Frees the model's artifacts; correctness does not depend on it,
		// since cache keys carry the content hash.
		host.cache.Invalidate(tenant, model)
		httpapi.WriteJSON(w, http.StatusOK, map[string]string{"deleted": tenant + "/" + model})
	})
}
