package main

import (
	"context"

	"socrel/internal/assembly"
	"socrel/internal/core"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
)

// batchPoints is the size of one what-if grid.
const batchPoints = 256

// whatifBatch: 256-point list grids through server.ServeBatch at Batch
// priority on one server over the parametric assembly. Why: the batch
// kernel does almost all the work and serving overhead is spread over
// 256 points, so a kernel or allocation change moves this workload and
// a serving-overhead change should not. Every point is freshly drawn,
// so no per-point cache can answer it.
//
// A run's answers (256 per op) are too many to keep for a check after
// the timed interval, so each grid is checked right after its op, while
// the op timer is stopped.
type whatifBatch struct {
	p   assembly.PaperParams
	ca  *core.CompiledAssembly
	srv *server.Server
	gen *pointGen
	tr  *tracer

	grid  [][]float64
	ans   []socruntime.Answer
	wrong int

	// traced runs only
	srv0  server.Stats
	par0  core.ParametricStats
	memo0 core.MemoStats
}

func buildBatch(seed int64, tr *tracer) (instance, error) {
	p := drawParams(newRand(seed, 0))
	ca, err := compileModel(p, tr)
	if err != nil {
		return nil, err
	}
	srv := server.New(evaluator(ca, tr), server.Config{
		Service:       searchSvc,
		QueueCapacity: queueCapacity,
		Limiter:       server.LimiterConfig{LatencyTarget: latencyTarget},
	})
	grid := make([][]float64, batchPoints)
	for i := range grid {
		grid[i] = make([]float64, 3)
	}
	return &whatifBatch{p: p, ca: ca, srv: srv, gen: newPointGen(seed), tr: tr, grid: grid}, nil
}

func (w *whatifBatch) prepare() { w.gen.fillGrid(w.grid) }

func (w *whatifBatch) do(ctx context.Context) bool {
	req := server.BatchRequest{Service: searchSvc, Scope: "whatif", ParamSets: w.grid, Priority: server.Batch}
	if w.tr == nil {
		w.ans = w.srv.ServeBatch(ctx, req)
	} else {
		sp := &opSpan{}
		s := w.tr.now()
		w.ans = w.srv.ServeBatch(withOp(ctx, sp), req)
		w.tr.add("server.self_us", float64(sp.self(interval{s, w.tr.now()}))/1e3)
	}
	for _, a := range w.ans {
		if a.Kind != socruntime.Exact || a.Err != nil {
			return false
		}
	}
	return true
}

// finish checks the grid just served against the closed form.
func (w *whatifBatch) finish() {
	for i, a := range w.ans {
		if a.Kind == socruntime.Exact && !closeEnough(a.Pfail, oracleSearch(w.p, w.grid[i][1])) {
			w.wrong++
			return
		}
	}
}

func (w *whatifBatch) startLog() {
	w.wrong = 0
	if w.tr != nil {
		w.srv0, w.par0, w.memo0 = w.srv.Stats(), w.ca.ParametricStats(), w.ca.MemoStats()
	}
}

func (w *whatifBatch) verify() (int, error) { return w.wrong, nil }

func (w *whatifBatch) layers(ops int) layerSet {
	m := newLayerSet()
	serverLayers(m, w.tr, ops, w.srv0, w.srv.Stats())
	coreLayers(m, w.tr, w.par0, w.ca.ParametricStats(), w.memo0, w.ca.MemoStats())
	points := w.tr.total("batch_points")
	m.put("core.batch_point_ns", ratio{w.tr.total("batch_ns"), points}.Value())
	m.share("core.allocs_per_point", ratio{w.tr.total("batch_mallocs"), points})
	return m
}

func (w *whatifBatch) close() {}
