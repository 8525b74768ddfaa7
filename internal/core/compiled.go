// Execute phase of the engine: an immutable CompiledAssembly evaluates
// failure probabilities with per-goroutine session scratch (pooled), so any
// number of goroutines can issue Pfail / PfailBatch calls concurrently
// against one compiled artifact. Within one evaluation a session shares
// each (service, params) result, as the paper's Pfail_Alg does; nothing is
// shared across evaluations.
package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"socrel/internal/expr"
	"socrel/internal/linalg"
	"socrel/internal/markov"
	"socrel/internal/model"
)

// batchChunk is the number of consecutive points a PfailBatch worker
// claims at a time. A closed-form root evaluates the whole chunk in one
// expr.EvalLane pass; eight points amortize instruction dispatch while
// keeping the structure-of-arrays scratch inside L1.
const batchChunk = 8

// PfailBatchCtx fans a batch out to several workers only when each gets
// at least this many points, as measured at -cpu 2 on the paper's remote
// assembly (BENCH_core.json): below it, starting the workers and waking
// a second P costs more than the points they split. A closed-form point
// costs ~0.2 us and a numeric one ~2 us, so the closed-form floor is the
// higher: two workers first beat one at about 512 closed-form points and
// 64 numeric points per batch.
const (
	minWorkerPointsNumeric    = 32
	minWorkerPointsClosedForm = 256
)

// MemoStats counts how composite invocations were served within each
// evaluation: from an earlier invocation of the same service with the same
// parameters in that evaluation, or by solving its chain. Every
// evaluation starts with nothing shared, so the counts describe sharing
// inside one evaluation, never reuse across requests.
type MemoStats struct {
	Hits   uint64 // invocations answered by an earlier one in the same evaluation
	Misses uint64 // invocations that solved their composite's chain
}

// CompiledAssembly is the immutable product of Compile: every binding
// resolved, every expression a slot program, every composite a reusable
// chain skeleton. It is safe for concurrent use; per-evaluation scratch,
// including the table that shares results within one evaluation, lives in
// pooled sessions.
type CompiledAssembly struct {
	opts     Options
	services []*compiledService
	byName   map[string]int
	maxStack int
	maxArity int

	shareHits   atomic.Uint64
	shareMisses atomic.Uint64
	pool        sync.Pool

	// Parametric compilation artifacts (see parametric.go): closed-form
	// Pfail programs per root output, compile-time fallback reasons, and
	// which path served each evaluated point. Both maps are nil unless the
	// assembly came from CompileParametric, and immutable afterwards.
	parametric         map[int]*parametricOutput
	parametricFallback map[string]error
	parametricPoints   atomic.Uint64
	numericPoints      atomic.Uint64
	gradientPoints     atomic.Uint64
}

func (ca *CompiledAssembly) init() {
	ca.pool.New = func() any { return newSession(ca) }
}

// MemoStats returns the within-evaluation sharing counters, summed over
// every numeric evaluation the assembly has completed. Safe for
// concurrent use; the counters are monotonic.
func (ca *CompiledAssembly) MemoStats() MemoStats {
	return MemoStats{Hits: ca.shareHits.Load(), Misses: ca.shareMisses.Load()}
}

// Services returns the compiled service names in compilation order.
func (ca *CompiledAssembly) Services() []string {
	out := make([]string, len(ca.services))
	for i, s := range ca.services {
		out[i] = s.name
	}
	return out
}

// Options returns the options the assembly was compiled with.
func (ca *CompiledAssembly) Options() Options { return ca.opts }

// Pfail returns the failure probability of the named service invoked with
// the given actual parameters. Safe for concurrent use.
func (ca *CompiledAssembly) Pfail(service string, params ...float64) (float64, error) {
	return ca.PfailCtx(context.Background(), service, params...)
}

// PfailCtx is Pfail honoring cancellation and isolating panics: a panic
// during the evaluation surfaces as ErrPanic instead of unwinding into
// the caller, and a canceled context as ErrCanceled.
func (ca *CompiledAssembly) PfailCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	idx, ok := ca.byName[service]
	if !ok {
		return 0, fmt.Errorf("%w: %q", model.ErrUnknownService, service)
	}
	if err := ctx.Err(); err != nil {
		return 0, classify(err)
	}
	if po := ca.parametric[idx]; po != nil {
		if len(params) != po.arity {
			return 0, fmt.Errorf("%w: %s expects %d, got %d", model.ErrArity, service, po.arity, len(params))
		}
		s := ca.pool.Get().(*session)
		v, perr := evalParametricPoint(po.prog, params, s.stack)
		ca.pool.Put(s)
		if perr == nil && !math.IsNaN(v) && !math.IsInf(v, 0) {
			ca.parametricPoints.Add(1)
			return clamp01(v), nil
		}
		// Fall through to the numeric kernel: it re-derives the failure
		// with exact per-point error attribution (division by zero in a
		// closed form corresponds to trapped probability mass or an
		// absorbing-classification boundary the numeric path diagnoses).
	}
	if ca.parametric != nil {
		ca.numericPoints.Add(1)
	}
	s := ca.pool.Get().(*session)
	// Sessions are safe to reuse after a failed or panicked evaluation:
	// every scratch buffer is reset at the start of its next use.
	p, err := guardPfail(func() (float64, error) { return s.pfailTop(idx, params) })
	ca.pool.Put(s)
	if err != nil {
		return 0, classify(err)
	}
	return p, nil
}

// Reliability returns 1 - Pfail for the named service.
func (ca *CompiledAssembly) Reliability(service string, params ...float64) (float64, error) {
	p, err := ca.Pfail(service, params...)
	if err != nil {
		return 0, err
	}
	return 1 - p, nil
}

// ReliabilityCtx is Reliability honoring cancellation.
func (ca *CompiledAssembly) ReliabilityCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	p, err := ca.PfailCtx(ctx, service, params...)
	if err != nil {
		return 0, err
	}
	return 1 - p, nil
}

// PfailBatch evaluates the named service at every parameter set, fanning
// the points out over up to GOMAXPROCS goroutines. The result order
// matches paramSets; on error the lowest-indexed failing point wins and
// the result slice is nil.
func (ca *CompiledAssembly) PfailBatch(service string, paramSets [][]float64) ([]float64, error) {
	out, err := ca.PfailBatchCtx(context.Background(), service, paramSets)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PfailBatchCtx is PfailBatch honoring cancellation and isolating panics,
// with a partial-results contract: the returned slice always has
// len(paramSets) entries, NaN at points that failed or were never
// evaluated. The error is the lowest-indexed point's failure (classified
// into the taxonomy).
//
// Points are handed out in chunks of batchChunk to up to GOMAXPROCS
// workers, each with at least minWorkerPointsNumeric (on a closed-form
// root, minWorkerPointsClosedForm) points; a smaller batch runs on the
// caller's goroutine. A root with a closed form evaluates a chunk in one
// structure-of-arrays pass (expr.EvalLane); a chunk the closed form cannot
// serve, and every chunk of a numeric root, runs point by point through
// the single-point kernel. Either way each result is bit-identical to
// Pfail at that point, and a failing point never poisons its siblings.
// Workers check ctx before every numeric point and every closed-form
// chunk, and a closed-form chunk whose evaluation straddled the
// cancellation discards its results, so a cancellation stops the batch at
// a point boundary.
func (ca *CompiledAssembly) PfailBatchCtx(ctx context.Context, service string, paramSets [][]float64) ([]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	idx, ok := ca.byName[service]
	if !ok {
		return nil, fmt.Errorf("%w: %q", model.ErrUnknownService, service)
	}
	out := make([]float64, len(paramSets))
	for i := range out {
		out[i] = math.NaN()
	}
	numChunks := (len(paramSets) + batchChunk - 1) / batchChunk
	po := ca.parametric[idx]
	floor := minWorkerPointsNumeric
	if po != nil {
		floor = minWorkerPointsClosedForm
	}
	workers := min(runtime.GOMAXPROCS(0), numChunks, len(paramSets)/floor)
	if workers <= 1 {
		// Serial: chunks and points run in index order, so the first
		// failure is the lowest-indexed one.
		s := ca.pool.Get().(*session)
		defer ca.pool.Put(s)
		var firstErr error
		for lo := 0; lo < len(paramSets); lo += batchChunk {
			if err := ctx.Err(); err != nil {
				if firstErr == nil {
					firstErr = batchPointError(lo, err)
				}
				break
			}
			if i, err := ca.evalBatchChunk(ctx, s, idx, po, paramSets, out, lo); err != nil && firstErr == nil {
				firstErr = batchPointError(i, err)
			}
		}
		return out, firstErr
	}
	// Fan out. The workers capture a copy of ctx, so the parameter
	// itself never escapes and the serial path above stays
	// allocation-free beyond out.
	wctx := ctx
	errIdx := len(paramSets)
	var errVal error
	var errMu sync.Mutex
	record := func(i int, err error) {
		errMu.Lock()
		if i < errIdx {
			errIdx, errVal = i, err
		}
		errMu.Unlock()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := ca.pool.Get().(*session)
			defer ca.pool.Put(s)
			for {
				c := int(next.Add(1)) - 1
				if c >= numChunks {
					return
				}
				if err := wctx.Err(); err != nil {
					record(c*batchChunk, err)
					return
				}
				if i, err := ca.evalBatchChunk(wctx, s, idx, po, paramSets, out, c*batchChunk); err != nil {
					record(i, err)
				}
			}
		}()
	}
	wg.Wait()
	if errVal != nil {
		return out, batchPointError(errIdx, errVal)
	}
	return out, nil
}

// batchPointError wraps point i's failure into PfailBatchCtx's error.
func batchPointError(i int, err error) error {
	return fmt.Errorf("core: batch point %d: %w", i, classify(err))
}

// evalBatchChunk evaluates the chunk of batchChunk points starting at lo
// into out, on session s, and returns the lowest failing index in the
// chunk with its raw error (nil when every point succeeded). A failing
// point leaves NaN and does not stop its siblings; a cancellation stops
// the chunk at a point boundary.
func (ca *CompiledAssembly) evalBatchChunk(ctx context.Context, s *session, idx int, po *parametricOutput, paramSets [][]float64, out []float64, lo int) (int, error) {
	hi := min(lo+batchChunk, len(paramSets))
	if po != nil && ca.parametricChunk(po, s, paramSets[lo:hi], out[lo:hi]) {
		if cerr := ctx.Err(); cerr != nil {
			// The cancellation fired while the chunk was in flight;
			// discard its results to keep the stop-at-a-point-boundary
			// contract.
			for i := lo; i < hi; i++ {
				out[i] = math.NaN()
			}
			return lo, cerr
		}
		ca.parametricPoints.Add(uint64(hi - lo))
		return 0, nil
	}
	if ca.parametric != nil {
		ca.numericPoints.Add(uint64(hi - lo))
	}
	var firstAt int
	var firstErr error
	for i := lo; i < hi; i++ {
		if err := ctx.Err(); err != nil {
			if firstErr == nil {
				firstAt, firstErr = i, err
			}
			break
		}
		p, err := guardPfail(func() (float64, error) { return s.pfailTop(idx, paramSets[i]) })
		if err != nil {
			if firstErr == nil {
				firstAt, firstErr = i, err
			}
			continue
		}
		out[i] = p
	}
	return firstAt, firstErr
}

// ReliabilityBatch is PfailBatch mapped through 1 - p.
func (ca *CompiledAssembly) ReliabilityBatch(service string, paramSets [][]float64) ([]float64, error) {
	ps, err := ca.PfailBatch(service, paramSets)
	if err != nil {
		return nil, err
	}
	for i := range ps {
		ps[i] = 1 - ps[i]
	}
	return ps, nil
}

// ReliabilityBatchCtx is PfailBatchCtx mapped through 1 - p (failed points
// stay NaN).
func (ca *CompiledAssembly) ReliabilityBatchCtx(ctx context.Context, service string, paramSets [][]float64) ([]float64, error) {
	ps, err := ca.PfailBatchCtx(ctx, service, paramSets)
	for i := range ps {
		ps[i] = 1 - ps[i]
	}
	return ps, err
}

// session is the per-goroutine scratch of one evaluation stream: the
// parameter arena (a stack of actual-parameter frames for the invocation
// chain), the expression stack, the sharing table, per-composite failure
// buffers, and the shared linear-solve workspace. Composites cannot recurse
// (Compile rejects cycles), so per-composite buffers are safe; the solve
// workspace is shared because a composite only uses it after its recursion
// into providers has fully completed.
type session struct {
	ca    *CompiledAssembly
	arena []float64
	stack []float64 // sized for a batchChunk-wide closed-form EvalLane

	// shared is the current evaluation's sharing table, per composite
	// service: each entry is the service's parameter frame followed by its
	// Pfail (stride arity+1). pfailTop empties it; the slices keep their
	// capacity, so a warm session shares without allocating.
	shared       [][]float64
	hits, misses uint64

	stateFail [][]float64              // per service: per-transient failure
	reqFail   [][]model.RequestFailure // per service: per-request scratch

	// Structured-solve workspace: per-transition augmented probabilities
	// and per-state absorption values, classification and reachability
	// sized to the largest skeleton; the dense block, right-hand side,
	// permutation and block solution sized to the largest cyclic SCC.
	edgeP    []float64
	x        []float64
	absorb   []bool
	reach    []bool
	sccLocal []int32
	m        []float64 // m×m block I-Q of one cyclic SCC, factorized in place
	b        []float64
	blockX   []float64
	perm     []int

	// chunkSlots holds a closed-form chunk's parameters transposed to
	// structure-of-arrays order for expr.EvalLane (see parametricChunk).
	chunkSlots []float64
}

func newSession(ca *CompiledAssembly) *session {
	s := &session{
		ca:        ca,
		arena:     make([]float64, 0, 64),
		stack:     make([]float64, ca.maxStack*batchChunk+expr.LaneCallScratch),
		shared:    make([][]float64, len(ca.services)),
		stateFail: make([][]float64, len(ca.services)),
		reqFail:   make([][]model.RequestFailure, len(ca.services)),
	}
	maxN, maxTrans, maxSCC := 1, 1, 1
	for i, svc := range ca.services {
		if svc.comp == nil {
			continue
		}
		s.stateFail[i] = make([]float64, svc.comp.n)
		s.reqFail[i] = make([]model.RequestFailure, svc.comp.maxRequests)
		maxN = max(maxN, svc.comp.n)
		maxTrans = max(maxTrans, len(svc.comp.transitions))
		maxSCC = max(maxSCC, svc.comp.structure.maxSCC)
	}
	s.edgeP = make([]float64, maxTrans)
	s.x = make([]float64, maxN)
	s.absorb = make([]bool, maxN)
	s.reach = make([]bool, maxN)
	s.sccLocal = make([]int32, maxN)
	s.m = make([]float64, maxSCC*maxSCC)
	s.b = make([]float64, maxSCC)
	s.blockX = make([]float64, maxSCC)
	s.perm = make([]int, maxSCC)
	return s
}

// pfailTop evaluates a top-level invocation, seeding the arena with the
// caller-supplied parameters. It starts the evaluation with an empty
// sharing table and adds the evaluation's sharing counts to the
// assembly's once, at the end.
func (s *session) pfailTop(svcIdx int, params []float64) (float64, error) {
	for i := range s.shared {
		s.shared[i] = s.shared[i][:0]
	}
	s.hits, s.misses = 0, 0
	s.arena = append(s.arena[:0], params...)
	p, err := s.pfail(svcIdx, 0, len(params))
	if s.hits != 0 {
		s.ca.shareHits.Add(s.hits)
	}
	if s.misses != 0 {
		s.ca.shareMisses.Add(s.misses)
	}
	return p, err
}

// pfail evaluates one invocation whose actual parameters live at
// arena[off:off+np].
func (s *session) pfail(svcIdx, off, np int) (float64, error) {
	svc := s.ca.services[svcIdx]
	if np != svc.arity {
		return 0, fmt.Errorf("%w: %s expects %d, got %d", model.ErrArity, svc.name, svc.arity, np)
	}
	if svc.simple != nil {
		if svc.simple.isConst {
			return svc.simple.constVal, nil
		}
		v, err := svc.simple.prog.Eval(s.arena[off:off+np], s.stack)
		if err != nil {
			return 0, fmt.Errorf("model: Pfail(%s): %w", svc.name, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("%w: Pfail(%s) = %g", ErrNonFinite, svc.name, v)
		}
		return clamp01(v), nil
	}
	frame := s.arena[off : off+np]
	tab := s.shared[svcIdx]
	for e := 0; e < len(tab); e += np + 1 {
		if sameFrame(tab[e:e+np], frame) {
			s.hits++
			return tab[e+np], nil
		}
	}
	s.misses++
	v, err := s.evalComposite(svcIdx, off, np)
	if err != nil {
		return 0, err
	}
	// The recursion above only appended past frame and, since Compile
	// rejects cycles, never touched this service's table.
	s.shared[svcIdx] = append(append(tab, frame...), v)
	return v, nil
}

// sameFrame reports whether two parameter frames are bit-identical.
func sameFrame(a, b []float64) bool {
	for i, x := range a {
		if math.Float64bits(x) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// evalComposite fills the composite's pre-built skeleton with numbers and
// solves it: per-state failures first (recursing into providers and
// connectors), then the augmented-chain linear system. The per-state and
// per-edge arithmetic mirrors the interpreted evalComposite operation for
// operation; only the solve takes a different (structured) route, so the
// two engines agree to within 1e-12 (TestRandomFlowParity).
func (s *session) evalComposite(svcIdx, off, np int) (float64, error) {
	svc := s.ca.services[svcIdx]
	comp := svc.comp
	fail := s.stateFail[svcIdx]
	for i := range fail {
		fail[i] = 0
	}
	// Per-state failure probabilities (statements 4-7).
	for si := range comp.states {
		st := &comp.states[si]
		f, err := s.stateFailure(svcIdx, st, off, np)
		if err != nil {
			return 0, atPath(err, svc.name, "state:"+st.name)
		}
		fail[st.transient] = f
	}

	// Augmented transition probabilities (statements 8-12): weigh each
	// flow transition by 1-f of its source. fail[Start] == 0.
	for ti := range comp.transitions {
		tr := &comp.transitions[ti]
		p := tr.constVal
		if !tr.isConst {
			var err error
			p, err = tr.prog.Eval(s.arena[off:off+np], s.stack)
			if err != nil {
				return 0, fmt.Errorf("core: %s transition %s -> %s: %w", svc.name, tr.fromName, tr.toName, err)
			}
		}
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return 0, fmt.Errorf("%w: %s: P(%s -> %s) = %g", ErrNonFinite, svc.name, tr.fromName, tr.toName, p)
		}
		if p < -1e-12 || p > 1+1e-12 {
			return 0, fmt.Errorf("%w: %s: P(%s -> %s) = %g", ErrBadTransition, svc.name, tr.fromName, tr.toName, p)
		}
		p *= 1 - fail[tr.from]
		s.edgeP[ti] = clamp01(p)
	}

	if err := s.solveStructured(svc, fail); err != nil {
		return 0, err
	}
	return clamp01(1 - clamp01(s.x[0])), nil
}

// solveStructured computes the absorption probabilities of the augmented
// chain into s.x from the per-state failures and s.edgeP, using the
// compile-time structure analysis (see structure.go).
//
// States are classified exactly like markov.Chain: runtime-absorbing
// states leave the transient set with x = 0, everyone else must have
// outgoing mass summing to one. The solve then walks the successors-first
// SCC order: singleton SCCs are pure forward substitution (with the
// geometric-series division for a self-loop), and larger SCCs factorize a
// dense block of their own size — never the full n×n system. On an
// acyclic flow (maxSCC == 1, the common case) the whole solve is a single
// O(E) pass with no matrix build, and the cannot-reach-absorption error is
// statically impossible: every non-absorbing state has validated unit
// outgoing mass, some of it off itself, so by induction along the
// topological order it reaches End, a failure edge, or an absorbing state.
// The reachability fixpoint therefore only runs when a real cycle exists.
func (s *session) solveStructured(svc *compiledService, fail []float64) error {
	comp := svc.comp
	fs := comp.structure
	n := comp.n
	edgeP, x := s.edgeP, s.x
	absorb := s.absorb[:n]
	const probTol = 1e-9

	// Classify each state the way markov.Chain does: a state with no
	// positive outgoing mass, or a lone self-loop of probability one, is
	// absorbing; everyone else must have outgoing mass (edges + failure)
	// summing to one.
	for i := 0; i < n; i++ {
		sum, self, edges := fail[i], -1.0, 0
		if fail[i] > 0 {
			edges = 1
		}
		for _, ti := range fs.outEdges[i] {
			p := edgeP[ti]
			if p == 0 {
				continue
			}
			edges++
			sum += p
			if comp.transitions[ti].to == i {
				self = p
			}
		}
		absorb[i] = edges == 0 || (edges == 1 && fail[i] == 0 && self >= 0 && math.Abs(self-1) <= probTol)
		if !absorb[i] && math.Abs(sum-1) > probTol {
			return fmt.Errorf("core: %s: %w: outgoing probabilities of %q sum to %.12g",
				svc.name, markov.ErrInvalidProbability, transientStateName(comp, i), sum)
		}
	}

	if fs.maxSCC > 1 {
		// A real cycle can trap probability mass: check that every
		// transient state reaches absorption, as markov.Chain does.
		reach := s.reach[:n]
		for i := 0; i < n; i++ {
			reach[i] = absorb[i] || fail[i] > 0
		}
		for ti := range comp.transitions {
			tr := &comp.transitions[ti]
			if tr.to < 0 && edgeP[ti] != 0 && !absorb[tr.from] {
				reach[tr.from] = true
			}
		}
		for changed := true; changed; {
			changed = false
			for ti := range comp.transitions {
				tr := &comp.transitions[ti]
				if tr.to < 0 || edgeP[ti] == 0 || absorb[tr.from] {
					continue
				}
				if !reach[tr.from] && reach[tr.to] {
					reach[tr.from] = true
					changed = true
				}
			}
		}
		for i := 0; i < n; i++ {
			if !reach[i] {
				return fmt.Errorf("core: %s: %w: state %q cannot reach an absorbing state",
					svc.name, markov.ErrNotAbsorbing, transientStateName(comp, i))
			}
		}
	}

	// Solve successors-first: when an SCC is reached, every state it can
	// step into outside itself is already solved.
	for c := 0; c < fs.sccCount(); c++ {
		members := fs.scc(c)
		if len(members) == 1 {
			i := int(members[0])
			if absorb[i] {
				x[i] = 0
				continue
			}
			xi, self := 0.0, 0.0
			for _, ti := range fs.outEdges[i] {
				tr := &comp.transitions[ti]
				p := edgeP[ti]
				switch {
				case tr.to == i:
					self = p
				case tr.to < 0:
					xi += p
				default:
					xi += p * x[tr.to]
				}
			}
			if self != 0 {
				xi /= 1 - self
			}
			x[i] = xi
			continue
		}
		// Cyclic SCC: factorize a dense block of the SCC's own size,
		// folding already-solved external contributions into the
		// right-hand side. Runtime-absorbing members keep an identity row
		// (x = 0), as markov.Chain drops them from Q.
		m := len(members)
		for l, gi := range members {
			s.sccLocal[gi] = int32(l)
		}
		mat := s.m[:m*m]
		rhs := s.b[:m]
		bx := s.blockX[:m]
		for j := range mat {
			mat[j] = 0
		}
		for l, gi := range members {
			i := int(gi)
			mat[l*m+l] = 1
			rhs[l] = 0
			if absorb[i] {
				continue
			}
			for _, ti := range fs.outEdges[i] {
				tr := &comp.transitions[ti]
				p := edgeP[ti]
				if p == 0 {
					continue
				}
				switch {
				case tr.to < 0:
					rhs[l] += p
				case absorb[tr.to]:
					// x_to = 0: contributes nothing.
				case fs.sccOf[tr.to] == int32(c):
					mat[l*m+int(s.sccLocal[tr.to])] -= p
				default:
					rhs[l] += p * x[tr.to]
				}
			}
		}
		if err := luSolve(mat, rhs, bx, s.perm[:m], m); err != nil {
			return fmt.Errorf("core: %s: %w", svc.name, err)
		}
		for l, gi := range members {
			x[gi] = bx[l]
		}
	}
	return nil
}

// luSolve factorizes the n×n matrix m (row-major, destroyed) with partial
// pivoting and solves m·x = b into x — the same elimination
// linalg.Factorize and LU.Solve perform, run in preallocated scratch.
// perm must hold n entries; b is left untouched. The structured solver
// uses it for each cyclic SCC block.
func luSolve(m, b, x []float64, perm []int, n int) error {
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		pivot := col
		maxAbs := math.Abs(m[col*n+col])
		for r := col + 1; r < n; r++ {
			if ab := math.Abs(m[r*n+col]); ab > maxAbs {
				maxAbs = ab
				pivot = r
			}
		}
		if maxAbs == 0 {
			return fmt.Errorf("%w: zero pivot at column %d", linalg.ErrSingular, col)
		}
		if pivot != col {
			ra, rb := m[pivot*n:(pivot+1)*n], m[col*n:(col+1)*n]
			for i := range ra {
				ra[i], rb[i] = rb[i], ra[i]
			}
			perm[pivot], perm[col] = perm[col], perm[pivot]
		}
		inv := 1 / m[col*n+col]
		for r := col + 1; r < n; r++ {
			f := m[r*n+col] * inv
			m[r*n+col] = f
			if f == 0 {
				continue
			}
			prow := m[col*n : (col+1)*n]
			rrow := m[r*n : (r+1)*n]
			for c := col + 1; c < n; c++ {
				rrow[c] += -f * prow[c]
			}
		}
	}
	for i, p := range perm {
		x[i] = b[p]
	}
	for i := 1; i < n; i++ {
		acc := x[i]
		for j, l := range m[i*n : i*n+i] {
			acc -= l * x[j]
		}
		x[i] = acc
	}
	for i := n - 1; i >= 0; i-- {
		row := m[i*n : (i+1)*n]
		acc := x[i]
		for j := i + 1; j < n; j++ {
			acc -= row[j] * x[j]
		}
		x[i] = acc / row[i]
	}
	return nil
}

// stateFailure mirrors the interpreted stateFailure: evaluate every
// request's actual parameters, recurse into the (pre-resolved) provider
// and connector, and combine under the completion/dependency model.
func (s *session) stateFailure(svcIdx int, st *compiledState, off, np int) (float64, error) {
	fails := s.reqFail[svcIdx][:len(st.requests)]
	for i := range st.requests {
		req := &st.requests[i]
		childOff := len(s.arena)
		for _, prog := range req.params {
			v, err := prog.Eval(s.arena[off:off+np], s.stack)
			if err != nil {
				s.arena = s.arena[:childOff]
				return 0, fmt.Errorf("request %q params: %w", req.role, err)
			}
			s.arena = append(s.arena, v)
		}
		pSvc, err := s.pfail(req.provider, childOff, len(req.params))
		s.arena = s.arena[:childOff]
		if err != nil {
			return 0, err
		}

		var pConn float64
		if req.connector >= 0 {
			connOff := len(s.arena)
			for _, prog := range req.connParams {
				v, err := prog.Eval(s.arena[off:off+np], s.stack)
				if err != nil {
					s.arena = s.arena[:connOff]
					return 0, fmt.Errorf("request %q connector params: %w", req.role, err)
				}
				s.arena = append(s.arena, v)
			}
			pConn, err = s.pfail(req.connector, connOff, len(req.connParams))
			s.arena = s.arena[:connOff]
			if err != nil {
				return 0, err
			}
		}

		var pInt float64
		if req.internal != nil {
			v, err := req.internal.Eval(s.arena[off:off+np], s.stack)
			if err != nil {
				return 0, fmt.Errorf("request %q internal failure: %w", req.role, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("%w: request %q internal failure = %g", ErrNonFinite, req.role, v)
			}
			pInt = clamp01(v)
		}
		fails[i] = model.RequestFailure{Int: pInt, Ext: model.ExtFailure(pConn, pSvc)}
	}
	return model.CombineState(st.completion, st.dependency, st.k, fails)
}
