package main

import (
	"context"
	"fmt"
	"time"

	"socrel/internal/adl"
	"socrel/internal/assembly"
	"socrel/internal/core"
	"socrel/internal/estimate"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
	"socrel/internal/store"
)

// tenantChurn: relserve's store path. 64 stored variants of the paper
// system (4 tenants, distinct constants) sit in a store.Mem behind an
// ArtifactCache smaller than the corpus, read with Zipf-skewed
// popularity; every op loads tenant/model (latest) through the cache
// and serves a search through one server with the artifact carried in
// the request context, as relserve's dispatchEval does. Every 32nd op
// publishes a new version of a popular model instead, so writes sit
// beside reads and the next read of that model misses. Why: the store
// and compile layers do the work here and the cluster does none, and a
// read-path fix that breaks on version bumps shows.
type tenantChurn struct {
	st    *store.Mem
	cache *store.ArtifactCache
	srv   *server.Server
	gen   *churnGen
	tr    *tracer

	latest []int // corpus index -> latest published version
	op     churnOp
	log    []churnAnswer

	// traced runs only
	srv0 server.Stats
	seen map[*core.CompiledAssembly]artifactStats
	cs0  store.CacheStats
}

// churnAnswer is one served answer, or one publish and the version it
// should have created, kept for the oracle.
type churnAnswer struct {
	ref         store.Ref
	list, pfail float64
	wantVersion int // publishes only
}

// artifactStats is an artifact's engine counters when the traced run
// first saw it.
type artifactStats struct {
	par  core.ParametricStats
	memo core.MemoStats
}

// artifactKey carries the request's compiled artifact through the
// server to the evaluator.
type artifactKey struct{}

// dispatchEval evaluates with the artifact the request carries.
type dispatchEval struct{ tr *tracer }

func (d dispatchEval) PfailCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	ca, ok := ctx.Value(artifactKey{}).(*core.CompiledAssembly)
	if !ok {
		return 0, fmt.Errorf("no artifact in the request context")
	}
	if d.tr == nil {
		return ca.PfailCtx(ctx, service, params...)
	}
	s := d.tr.now()
	p, err := ca.PfailCtx(ctx, service, params...)
	d.tr.childOf(ctx, interval{s, d.tr.now()})
	return p, err
}

func buildChurn(seed int64, tr *tracer) (instance, error) {
	st := store.NewMem()
	corpus := churnCorpus(seed)
	latest := make([]int, len(corpus))
	for i, p := range corpus {
		rec, err := publish(st, i, p)
		if err != nil {
			return nil, err
		}
		latest[i] = rec.Version
	}
	est, err := estimate.New(estimate.Config{})
	if err != nil {
		return nil, err
	}
	srv := server.New(dispatchEval{tr: tr}, server.Config{
		Service:       searchSvc,
		QueueCapacity: queueCapacity,
		Limiter:       server.LimiterConfig{LatencyTarget: latencyTarget},
		OnOutcome: func(o server.Outcome) { // relserve's estimator feed
			est.Observe(estimate.Outcome{Provider: o.Service, Context: o.Scope, Failed: !o.Success, Latency: o.Latency, At: o.At})
		},
	})
	return &tenantChurn{
		st: st, cache: store.NewArtifactCache(churnCacheSize), srv: srv,
		gen: newChurnGen(seed), tr: tr, latest: latest,
	}, nil
}

// publish parses a generated document and publishes it as the next
// version of corpus model i.
func publish(st *store.Mem, i int, p assembly.PaperParams) (store.Record, error) {
	doc, err := adl.ParseDSL(paperADL(p))
	if err != nil {
		return store.Record{}, err
	}
	id := corpusID(i)
	return st.Publish(id.tenant, id.model, doc, store.PublishOptions{})
}

func (w *tenantChurn) prepare() { w.op = w.gen.next() }

func (w *tenantChurn) do(ctx context.Context) bool {
	if w.op.publish {
		return w.doPublish()
	}
	id := corpusID(w.op.model)
	ref := store.Ref{Tenant: id.tenant, Model: id.model}
	var (
		ca  *core.CompiledAssembly
		rec store.Record
		err error
	)
	if w.tr == nil {
		ca, rec, err = w.cache.Load(w.st, ref, asmName, core.Options{})
	} else {
		ca, rec, err = w.tracedLoad(ref)
	}
	if err != nil {
		return false
	}
	req := server.Request{Service: searchSvc, Scope: rec.Ref.String() + "#" + asmName, Params: searchParams(w.op.list)}
	ctx = context.WithValue(ctx, artifactKey{}, ca)
	var ans socruntime.Answer
	if w.tr == nil {
		ans = w.srv.Serve(ctx, req)
	} else {
		sp := &opSpan{}
		s := w.tr.now()
		ans = w.srv.Serve(withOp(ctx, sp), req)
		w.tr.add("server.self_us", float64(sp.self(interval{s, w.tr.now()}))/1e3)
	}
	if ans.Kind != socruntime.Exact || ans.Err != nil {
		return false
	}
	w.log = append(w.log, churnAnswer{ref: rec.Ref, list: w.op.list, pfail: ans.Pfail})
	return true
}

// tracedLoad times one ArtifactCache.Load and files it as a hit or a
// miss by the cache's own counters; a miss is also a compile sample.
func (w *tenantChurn) tracedLoad(ref store.Ref) (*core.CompiledAssembly, store.Record, error) {
	before := w.cache.Stats()
	start := time.Now()
	ca, rec, err := w.cache.Load(w.st, ref, asmName, core.Options{})
	d := time.Since(start)
	if err != nil {
		return nil, rec, err
	}
	if w.cache.Stats().Hits > before.Hits {
		w.tr.add("store.load_hit_us", float64(d)/1e3)
	} else {
		w.tr.add("store.load_miss_ms", float64(d)/1e6)
		w.tr.add("core.compile_ms", float64(d)/1e6)
	}
	if _, ok := w.seen[ca]; !ok && w.seen != nil {
		w.seen[ca] = artifactStats{ca.ParametricStats(), ca.MemoStats()}
	}
	return ca, rec, nil
}

func (w *tenantChurn) doPublish() bool {
	start := time.Now()
	rec, err := publish(w.st, w.op.model, w.op.params)
	if w.tr != nil {
		w.tr.add("store.publish_us", float64(time.Since(start))/1e3)
	}
	if err != nil {
		return false
	}
	want := w.latest[w.op.model] + 1
	w.latest[w.op.model] = rec.Version
	w.log = append(w.log, churnAnswer{ref: rec.Ref, wantVersion: want})
	return true
}

func (w *tenantChurn) finish() {}

func (w *tenantChurn) startLog() {
	w.log = nil
	if w.tr != nil {
		w.srv0, w.cs0 = w.srv.Stats(), w.cache.Stats()
		w.seen = map[*core.CompiledAssembly]artifactStats{}
	}
}

// verify re-evaluates every answer on the interpreted engine over the
// stored version it was served from, and checks every publish got the
// next version number.
func (w *tenantChurn) verify() (int, error) {
	evals := map[store.Ref]*core.Evaluator{}
	wrong := 0
	for _, a := range w.log {
		if a.wantVersion > 0 {
			if a.ref.Version != a.wantVersion {
				wrong++
			}
			continue
		}
		ev, ok := evals[a.ref]
		if !ok {
			rec, err := w.st.Get(a.ref)
			if err != nil {
				return 0, err
			}
			doc, err := rec.Document()
			if err != nil {
				return 0, err
			}
			asm, err := doc.BuildAssembly(asmName)
			if err != nil {
				return 0, err
			}
			ev = core.New(asm, core.Options{})
			evals[a.ref] = ev
		}
		want, err := ev.Pfail(searchSvc, searchParams(a.list)...)
		if err != nil || !closeEnough(a.pfail, want) {
			wrong++
		}
	}
	return wrong, nil
}

func (w *tenantChurn) layers(ops int) layerSet {
	m := newLayerSet()
	serverLayers(m, w.tr, ops, w.srv0, w.srv.Stats())
	var par0, par1 core.ParametricStats
	var memo0, memo1 core.MemoStats
	for ca, s := range w.seen {
		p, mm := ca.ParametricStats(), ca.MemoStats()
		par1.ParametricPoints += p.ParametricPoints
		par1.NumericPoints += p.NumericPoints
		memo1.Hits += mm.Hits
		memo1.Misses += mm.Misses
		par0.ParametricPoints += s.par.ParametricPoints
		par0.NumericPoints += s.par.NumericPoints
		memo0.Hits += s.memo.Hits
		memo0.Misses += s.memo.Misses
	}
	coreLayers(m, w.tr, par0, par1, memo0, memo1)
	cs := w.cache.Stats()
	hits := float64(cs.Hits - w.cs0.Hits)
	m.put("store.load_hit_us", w.tr.median("store.load_hit_us"))
	m.put("store.load_miss_ms", w.tr.median("store.load_miss_ms"))
	m.share("store.hit_ratio", ratio{hits, hits + float64(cs.Misses-w.cs0.Misses)})
	m.put("store.publish_us", w.tr.median("store.publish_us"))
	return m
}

func (w *tenantChurn) close() {}
