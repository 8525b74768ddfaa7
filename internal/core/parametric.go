// Parametric compilation: perform the absorbing-chain solve once,
// symbolically, so that every subsequent evaluation of a root service is a
// pure expression evaluation instead of a per-point chain build + linear
// solve. The symbolic solve rides the same Tarjan condensation the numeric
// structured solver uses (see structure.go): acyclic flows eliminate in one
// successors-first O(E) pass of expression substitutions, and cyclic SCCs
// up to a configurable state bound eliminate by symbolic Gaussian
// elimination. Flows outside the closed-form fragment (SCCs above the
// bound, node-budget blowups, structurally trapped mass) transparently fall
// back to the numeric kernel, observable through ParametricStats.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"

	"socrel/internal/expr"
	"socrel/internal/model"
)

// DefaultStateBound is the largest cyclic SCC CompileParametric eliminates
// symbolically when ParametricOptions.StateBound is zero. Gaussian
// elimination of an m-state SCC multiplies rational forms m times over;
// beyond a handful of states the closed form grows faster than the numeric
// block solve it replaces.
const DefaultStateBound = 8

// DefaultMaxNodes bounds the symbolic solve's total node construction when
// ParametricOptions.MaxNodes is zero. The budget is a blowup fuse, not a
// size estimate of the final program (CSE shrinks the emitted program well
// below it): when elimination exceeds the budget the output falls back to
// the numeric kernel instead of compiling a pathological expression.
const DefaultMaxNodes = 1 << 16

// ErrNoParametricForm reports that a service has no compiled closed form:
// either CompileParametric fell back to the numeric kernel for it (the
// wrapped message says why), or the assembly was compiled with plain
// Compile.
var ErrNoParametricForm = errors.New("core: no parametric form")

// ParametricOptions tunes the symbolic solve of CompileParametric. The zero
// value means defaults.
type ParametricOptions struct {
	// StateBound is the largest cyclic SCC eliminated symbolically;
	// flows with a larger SCC fall back to the numeric kernel.
	// 0 means DefaultStateBound.
	StateBound int

	// MaxNodes bounds how many expression nodes the symbolic solve may
	// construct per output before falling back. 0 means DefaultMaxNodes.
	MaxNodes int
}

func (po ParametricOptions) withDefaults() ParametricOptions {
	if po.StateBound <= 0 {
		po.StateBound = DefaultStateBound
	}
	if po.MaxNodes <= 0 {
		po.MaxNodes = DefaultMaxNodes
	}
	return po
}

// parametricOutput is one root service's compiled closed form: a slot
// program over the service's formal parameters, plus one gradient program
// per formal (nil with gradErr set when a partial is not differentiable).
// The programs compile the evaluation-lowered form (see lowerForEval);
// pf and gradForms keep the paper-shaped originals for display.
// Gradients are compiled lazily on first use — most parametric consumers
// (sweeps, serving) never differentiate, and the per-formal derivative
// builds would otherwise dominate CompileParametric.
type parametricOutput struct {
	arity   int
	formals []string
	prog    *expr.Program
	pf      expr.Expr // paper-shaped source: renders ClosedForm, feeds the lazy gradient build

	gradOnce  sync.Once
	grads     []*expr.Program
	gradForms []string
	gradErr   error
}

// ensureGrads differentiates and compiles ∂Pfail/∂formal for every formal
// on first use, isolating panics into gradErr. Concurrency-safe.
func (po *parametricOutput) ensureGrads() {
	po.gradOnce.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				po.grads = nil
				po.gradErr = fmt.Errorf("%w: %w", ErrNonDifferentiable,
					&PanicError{Value: r, Stack: debug.Stack()})
			}
		}()
		grads := make([]*expr.Program, len(po.formals))
		gradForms := make([]string, len(po.formals))
		for i, f := range po.formals {
			d := expr.Derivative(po.pf, f)
			if containsNaN(d) {
				po.gradErr = fmt.Errorf("%w: d/d%s", ErrNonDifferentiable, f)
				return
			}
			gp, gerr := expr.CompileProgram(lowerForEval(d), po.formals, nil)
			if gerr != nil {
				po.gradErr = fmt.Errorf("%w: d/d%s: %w", ErrNonDifferentiable, f, gerr)
				return
			}
			grads[i] = gp
			gradForms[i] = d.String()
		}
		po.grads, po.gradForms = grads, gradForms
	})
}

// ParametricStats is a point-in-time snapshot of the parametric layer: how
// many root outputs compiled to closed forms, how many fell back, and how
// many evaluated points each path served. A nonzero NumericPoints against a
// compiled output means runtime fallback (an evaluation error in the closed
// form, re-derived numerically for exact error attribution).
type ParametricStats struct {
	Outputs          int    `json:"outputs"`           // root services with a compiled closed form
	Fallbacks        int    `json:"fallbacks"`         // root services that fell back at compile time
	ParametricPoints uint64 `json:"parametric_points"` // points served by closed-form evaluation
	NumericPoints    uint64 `json:"numeric_points"`    // points served by the numeric kernel
	GradientPoints   uint64 `json:"gradient_points"`   // gradient evaluations served from compiled derivatives
}

// ParametricStats returns the parametric layer's counters. Safe for
// concurrent use; the point counters are monotonic.
func (ca *CompiledAssembly) ParametricStats() ParametricStats {
	return ParametricStats{
		Outputs:          len(ca.parametric),
		Fallbacks:        len(ca.parametricFallback),
		ParametricPoints: ca.parametricPoints.Load(),
		NumericPoints:    ca.numericPoints.Load(),
		GradientPoints:   ca.gradientPoints.Load(),
	}
}

// ParametricFallbacks returns a copy of the per-service compile-time
// fallback reasons (empty when every root compiled, nil when the assembly
// came from plain Compile).
func (ca *CompiledAssembly) ParametricFallbacks() map[string]error {
	if ca.parametricFallback == nil {
		return nil
	}
	out := make(map[string]error, len(ca.parametricFallback))
	for k, v := range ca.parametricFallback {
		out[k] = v
	}
	return out
}

// Inline reports whether service is a root compiled to a closed form, so
// that one evaluation is a sub-microsecond, allocation-free expression
// evaluation that does no I/O and cannot block. The serving layer
// evaluates such a request without a deadline watcher, and answers it
// Stale when it sheds it (server.InlineEvaluator). A
// root that fell back to the numeric kernel at compile time, a
// non-root service and an unknown one report false. ctx is unused: the
// answer is a property of the compiled artifact.
func (ca *CompiledAssembly) Inline(_ context.Context, service string) bool {
	idx, ok := ca.byName[service]
	return ok && ca.parametric[idx] != nil
}

// ClosedForm returns the rendered closed-form Pfail expression of a root
// service compiled by CompileParametric, in terms of its formal parameters.
func (ca *CompiledAssembly) ClosedForm(service string) (string, bool) {
	idx, ok := ca.byName[service]
	if !ok {
		return "", false
	}
	po := ca.parametric[idx]
	if po == nil {
		return "", false
	}
	return po.pf.String(), true
}

// ClosedFormGradient returns the rendered closed form of ∂Pfail/∂param for
// a root service compiled by CompileParametric.
func (ca *CompiledAssembly) ClosedFormGradient(service, param string) (string, bool) {
	idx, ok := ca.byName[service]
	if !ok {
		return "", false
	}
	po := ca.parametric[idx]
	if po == nil {
		return "", false
	}
	po.ensureGrads()
	if po.grads == nil {
		return "", false
	}
	for i, f := range po.formals {
		if f == param {
			return po.gradForms[i], true
		}
	}
	return "", false
}

// FormalParams returns the formal parameter names of a compiled service.
func (ca *CompiledAssembly) FormalParams(service string) ([]string, bool) {
	idx, ok := ca.byName[service]
	if !ok {
		return nil, false
	}
	out := make([]string, len(ca.services[idx].formals))
	copy(out, ca.services[idx].formals)
	return out, true
}

// Sensitivities evaluates ∂Pfail/∂param for every formal parameter of a
// root service at the given point, from the compiled symbolic derivatives.
// The result is ordered like FormalParams. It returns ErrNoParametricForm
// (wrapping the fallback reason, if any) when the service has no closed
// form, and ErrNonDifferentiable when the closed form exists but contains a
// non-differentiable builtin.
func (ca *CompiledAssembly) Sensitivities(service string, params ...float64) ([]float64, error) {
	idx, ok := ca.byName[service]
	if !ok {
		return nil, fmt.Errorf("%w: %q", model.ErrUnknownService, service)
	}
	po := ca.parametric[idx]
	if po == nil {
		if reason, had := ca.parametricFallback[service]; had {
			return nil, fmt.Errorf("%w: %s: %w", ErrNoParametricForm, service, reason)
		}
		return nil, fmt.Errorf("%w: %s (not a CompileParametric root)", ErrNoParametricForm, service)
	}
	if len(params) != po.arity {
		return nil, fmt.Errorf("%w: %s expects %d, got %d", model.ErrArity, service, po.arity, len(params))
	}
	po.ensureGrads()
	if po.grads == nil {
		return nil, fmt.Errorf("core: %s: %w", service, po.gradErr)
	}
	out := make([]float64, len(po.grads))
	s := ca.pool.Get().(*session)
	defer ca.pool.Put(s)
	// Gradients compile after sessions may already exist, so their
	// programs can outgrow the pooled stack; size a local one if so.
	stack := s.stack
	need := 0
	for _, g := range po.grads {
		if ms := g.MaxStack(); ms > need {
			need = ms
		}
	}
	if need > len(stack) {
		stack = make([]float64, need)
	}
	for i, g := range po.grads {
		v, err := evalParametricPoint(g, params, stack)
		if err != nil {
			return nil, fmt.Errorf("core: %s: d/d%s: %w", service, po.formals[i], classify(err))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: %s: d/d%s = %g", ErrNonFinite, service, po.formals[i], v)
		}
		out[i] = v
	}
	ca.gradientPoints.Add(1)
	return out, nil
}

// ErrNonDifferentiable reports a closed form whose symbolic derivative
// contains a non-differentiable builtin (abs, floor, ceil, min, max).
var ErrNonDifferentiable = errors.New("core: closed form is not differentiable")

// CompileParametric is Compile followed by a symbolic absorbing-chain solve
// per root service: each root whose flow lies in the closed-form fragment
// gets a slot program mapping its formal parameters directly to Pfail
// (plus compiled partial derivatives), and Pfail/PfailBatch evaluate that
// program instead of rebuilding and re-solving the chain per point. Roots
// outside the fragment (cyclic SCC above popts.StateBound, node-budget
// blowup, structurally trapped mass, non-constant lone self-loops) fall
// back to the numeric kernel transparently; ParametricStats and
// ParametricFallbacks report which path serves what.
//
// The closed-form path assumes the model is valid at the evaluated points
// (transition rows summing to one, probabilities in [0,1]): it skips the
// numeric kernel's per-point row-sum validation and interior clamping, and
// only clamps the final result. A point at which the closed form fails to
// evaluate (division by zero at an absorbing-classification boundary) is
// re-evaluated through the numeric kernel, which re-derives the exact
// per-point diagnosis.
func CompileParametric(resolver model.Resolver, opts Options, popts ParametricOptions, roots ...string) (*CompiledAssembly, error) {
	ca, err := Compile(resolver, opts, roots...)
	if err != nil {
		return nil, err
	}
	popts = popts.withDefaults()
	ca.parametric = make(map[int]*parametricOutput)
	ca.parametricFallback = make(map[string]error)
	for _, root := range roots {
		idx, ok := ca.byName[root]
		if !ok {
			continue // duplicate root already handled
		}
		if _, done := ca.parametric[idx]; done {
			continue
		}
		if _, done := ca.parametricFallback[root]; done {
			continue
		}
		po, perr := ca.buildParametric(idx, popts)
		if perr != nil {
			ca.parametricFallback[root] = perr
			continue
		}
		ca.parametric[idx] = po
		// Sessions are created lazily by the pool, so raising the stack
		// requirement here (before any evaluation) is safe.
		if ms := po.prog.MaxStack(); ms > ca.maxStack {
			ca.maxStack = ms
		}
	}
	return ca, nil
}

// buildParametric builds one root's closed form. Panics during the symbolic
// solve (a defective builtin const-folding, a pathological expression) are
// isolated into a fallback reason, never into the caller.
func (ca *CompiledAssembly) buildParametric(idx int, popts ParametricOptions) (po *parametricOutput, err error) {
	defer func() {
		if r := recover(); r != nil {
			po, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	svc := ca.services[idx]
	b := &symBuilder{ca: ca, popts: popts, memo: make(map[string]expr.Expr)}
	actuals := make([]expr.Expr, len(svc.formals))
	for i, f := range svc.formals {
		actuals[i] = expr.Var(f)
	}
	pf, err := b.pfail(idx, actuals)
	if err != nil {
		return nil, err
	}
	pf = expr.Simplify(pf)
	prog, err := expr.CompileProgram(lowerForEval(pf), svc.formals, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrNoParametricForm, svc.name, err)
	}
	po = &parametricOutput{
		arity:   svc.arity,
		formals: svc.formals,
		prog:    prog,
		pf:      pf,
	}
	return po, nil
}

// symBuilder performs the symbolic absorbing-chain solve over a compiled
// assembly. It mirrors the numeric session's evaluation shape — per-state
// failures, augmented edges, successors-first SCC elimination — but over
// expressions, with smart constructors that fold constants eagerly and a
// node budget that trips the fallback before a blowup compiles.
type symBuilder struct {
	ca    *CompiledAssembly
	popts ParametricOptions
	nodes int
	memo  map[string]expr.Expr // (service, actuals) -> symbolic Pfail
}

func (b *symBuilder) overBudget() bool { return b.nodes > b.popts.MaxNodes }

func (b *symBuilder) budgetErr(svc *compiledService) error {
	return fmt.Errorf("%w: %s: symbolic solve exceeded the %d-node budget", ErrNoParametricForm, svc.name, b.popts.MaxNodes)
}

// Smart constructors: fold constant operands and algebraic identities at
// build time, counting every node actually constructed against the budget.

func (b *symBuilder) add(l, r expr.Expr) expr.Expr {
	lc, lok := l.(expr.Num)
	rc, rok := r.(expr.Num)
	switch {
	case lok && rok:
		return expr.Num(float64(lc) + float64(rc))
	case lok && float64(lc) == 0:
		return r
	case rok && float64(rc) == 0:
		return l
	}
	b.nodes++
	return expr.Add(l, r)
}

func (b *symBuilder) sub(l, r expr.Expr) expr.Expr {
	lc, lok := l.(expr.Num)
	rc, rok := r.(expr.Num)
	switch {
	case lok && rok:
		return expr.Num(float64(lc) - float64(rc))
	case rok && float64(rc) == 0:
		return l
	}
	b.nodes++
	return expr.Sub(l, r)
}

func (b *symBuilder) mul(l, r expr.Expr) expr.Expr {
	lc, lok := l.(expr.Num)
	rc, rok := r.(expr.Num)
	switch {
	case lok && rok:
		return expr.Num(float64(lc) * float64(rc))
	case lok && float64(lc) == 0, rok && float64(rc) == 0:
		return expr.Num(0)
	case lok && float64(lc) == 1:
		return r
	case rok && float64(rc) == 1:
		return l
	}
	b.nodes++
	return expr.Mul(l, r)
}

func (b *symBuilder) div(l, r expr.Expr) expr.Expr {
	lc, lok := l.(expr.Num)
	rc, rok := r.(expr.Num)
	switch {
	case lok && float64(lc) == 0:
		return expr.Num(0)
	case rok && float64(rc) == 1:
		return l
	case lok && rok && float64(rc) != 0:
		return expr.Num(float64(lc) / float64(rc))
	}
	b.nodes++
	return expr.Div(l, r)
}

// oneMinus builds 1-x, cancelling a nested 1-(1-y) immediately so the
// complement-of-complement chains CombineState produces stay flat.
func (b *symBuilder) oneMinus(x expr.Expr) expr.Expr {
	if c, ok := x.(expr.Num); ok {
		return expr.Num(1 - float64(c))
	}
	if bx, ok := x.(*expr.Binary); ok && bx.Op == expr.OpSub {
		if c, ok := bx.L.(expr.Num); ok && float64(c) == 1 {
			return bx.R
		}
	}
	b.nodes++
	return expr.Sub(expr.Num(1), x)
}

func isZeroExpr(e expr.Expr) bool {
	c, ok := e.(expr.Num)
	return ok && float64(c) == 0
}

// pfail returns the symbolic failure probability of a service invoked with
// the given actual-parameter expressions, memoized on (service, actuals) so
// diamond invocation patterns (two states requesting the same provider with
// the same arguments) share one subtree — the CSE pass in CompileProgram
// then emits it once.
func (b *symBuilder) pfail(svcIdx int, actuals []expr.Expr) (expr.Expr, error) {
	svc := b.ca.services[svcIdx]
	if svc.simple != nil {
		if svc.simple.isConst {
			return expr.Num(svc.simple.constVal), nil
		}
		return b.substInto(svc.simple.src, svc.formals, actuals), nil
	}
	key, keyOK := pfailKey(svcIdx, actuals)
	if keyOK {
		if e, hit := b.memo[key]; hit {
			return e, nil
		}
	}
	e, err := b.composite(svc, actuals)
	if err != nil {
		return nil, err
	}
	if keyOK {
		b.memo[key] = e
	}
	return e, nil
}

// pfailKey renders a memo key for (service, actuals). Huge actuals are not
// worth rendering: the memo then skips them (keyOK = false).
func pfailKey(svcIdx int, actuals []expr.Expr) (string, bool) {
	var sb strings.Builder
	sb.WriteString(strconv.Itoa(svcIdx))
	for _, a := range actuals {
		if exprSizeCapped(a, 256) > 256 {
			return "", false
		}
		sb.WriteByte('|')
		sb.WriteString(a.String())
	}
	return sb.String(), true
}

// substInto inlines actual-parameter expressions into a callee's symbolic
// form. The identity substitution (formals standing for themselves, the
// root invocation) returns src as-is so root-level sharing is preserved.
func (b *symBuilder) substInto(src expr.Expr, formals []string, actuals []expr.Expr) expr.Expr {
	if len(formals) == 0 {
		return src
	}
	identity := true
	for i, f := range formals {
		if v, ok := actuals[i].(expr.Var); !ok || string(v) != f {
			identity = false
			break
		}
	}
	if identity {
		return src
	}
	m := make(map[string]expr.Expr, len(formals))
	for i, f := range formals {
		m[f] = actuals[i]
	}
	out := expr.Subst(src, m)
	b.nodes += exprSizeCapped(out, 256)
	return out
}

// exprSizeCapped counts e's tree nodes, stopping once the count exceeds
// limit (the return value is then > limit but not the true size).
func exprSizeCapped(e expr.Expr, limit int) int {
	n := 0
	var walk func(expr.Expr) bool
	walk = func(e expr.Expr) bool {
		n++
		if n > limit {
			return false
		}
		switch t := e.(type) {
		case *expr.Neg:
			return walk(t.X)
		case *expr.Binary:
			return walk(t.L) && walk(t.R)
		case *expr.CallExpr:
			for _, a := range t.Args {
				if !walk(a) {
					return false
				}
			}
		}
		return true
	}
	walk(e)
	return n
}

// composite solves one composite's augmented absorbing chain symbolically:
// per-state failure expressions, augmented edges P·(1-F(from)), then the
// successors-first SCC walk the numeric solveStructured performs — with
// singleton SCCs eliminated by forward substitution (geometric-series
// division for self-loops) and cyclic SCCs by Gaussian elimination over
// the per-state absorption equations.
func (b *symBuilder) composite(svc *compiledService, actuals []expr.Expr) (expr.Expr, error) {
	comp := svc.comp
	fs := comp.structure
	n := comp.n

	// Per-state failure probabilities (statements 4-7), fail[Start] = 0.
	fail := make([]expr.Expr, n)
	for i := range fail {
		fail[i] = expr.Num(0)
	}
	for si := range comp.states {
		st := &comp.states[si]
		f, err := b.stateFailure(svc, st, actuals)
		if err != nil {
			return nil, err
		}
		fail[st.transient] = f
		if b.overBudget() {
			return nil, b.budgetErr(svc)
		}
	}

	// Augmented transition probabilities (statements 8-12).
	edges := make([]expr.Expr, len(comp.transitions))
	for ti := range comp.transitions {
		tr := &comp.transitions[ti]
		var p expr.Expr
		if tr.isConst {
			p = expr.Num(tr.constVal)
		} else {
			p = b.substInto(tr.src, svc.formals, actuals)
		}
		edges[ti] = b.mul(p, b.oneMinus(fail[tr.from]))
	}

	// Static absorbing classification. The numeric solver classifies per
	// point; symbolically a state is absorbing only when that holds at
	// every point: no structurally-nonzero outgoing mass, or a lone
	// constant self-loop of probability one with a structurally-zero
	// failure. A lone non-constant self-loop is absorbing only pointwise —
	// no single closed form covers both regimes, so it falls back.
	absorb := make([]bool, n)
	for i := 0; i < n; i++ {
		failZero := isZeroExpr(fail[i])
		edgeCount := 0
		var selfEdge expr.Expr
		selfOnly := true
		for _, ti := range fs.outEdges[i] {
			tr := &comp.transitions[ti]
			if isZeroExpr(edges[ti]) {
				continue
			}
			edgeCount++
			if tr.to == i {
				selfEdge = edges[ti]
			} else {
				selfOnly = false
			}
		}
		if !failZero {
			edgeCount++
		}
		if edgeCount == 0 {
			absorb[i] = true
			continue
		}
		if failZero && edgeCount == 1 && selfEdge != nil && selfOnly {
			if c, ok := selfEdge.(expr.Num); ok && math.Abs(float64(c)-1) <= 1e-9 {
				absorb[i] = true
				continue
			}
			return nil, fmt.Errorf("%w: %s: state %q is a lone self-loop with a non-constant probability (absorbing only pointwise)",
				ErrNoParametricForm, svc.name, transientStateName(comp, i))
		}
	}

	// Eliminate successors-first: when an SCC is reached, every state it
	// can step into outside itself already has a closed form.
	x := make([]expr.Expr, n)
	for c := 0; c < fs.sccCount(); c++ {
		members := fs.scc(c)
		if len(members) == 1 {
			i := int(members[0])
			if absorb[i] {
				x[i] = expr.Num(0)
				continue
			}
			acc := expr.Expr(expr.Num(0))
			var selfA expr.Expr
			for _, ti := range fs.outEdges[i] {
				tr := &comp.transitions[ti]
				A := edges[ti]
				if isZeroExpr(A) {
					continue
				}
				switch {
				case tr.to == i:
					selfA = A
				case tr.to < 0:
					acc = b.add(acc, A)
				default:
					acc = b.add(acc, b.mul(A, x[tr.to]))
				}
			}
			if selfA != nil {
				if c, ok := selfA.(expr.Num); ok && float64(c) == 1 {
					return nil, fmt.Errorf("%w: %s: state %q traps probability mass in a self-loop",
						ErrNoParametricForm, svc.name, transientStateName(comp, i))
				}
				acc = b.div(acc, b.oneMinus(selfA))
			}
			x[i] = acc
			if b.overBudget() {
				return nil, b.budgetErr(svc)
			}
			continue
		}
		if len(members) > b.popts.StateBound {
			return nil, fmt.Errorf("%w: %s: cyclic component of %d states exceeds the state bound %d",
				ErrNoParametricForm, svc.name, len(members), b.popts.StateBound)
		}
		if err := b.eliminateSCC(svc, comp, members, c, edges, x); err != nil {
			return nil, err
		}
		if b.overBudget() {
			return nil, b.budgetErr(svc)
		}
	}
	return b.sub(expr.Num(1), x[0]), nil
}

// eliminateSCC solves one cyclic SCC's absorption equations
//
//	x_l = b_l + Σ_j c_lj · x_j        (j ranging over SCC members)
//
// by Gaussian elimination without pivoting: solving row l for x_l divides
// by 1 - c_ll (the symbolic geometric-series denominator), substitution
// into later rows clears column l, and back substitution assembles the
// closed forms. Structurally-absorbing states cannot occur inside a cyclic
// SCC (membership requires a nonzero inter-state edge), so every member
// gets a full equation.
func (b *symBuilder) eliminateSCC(svc *compiledService, comp *compiledComposite, members []int32, c int, edges []expr.Expr, x []expr.Expr) error {
	fs := comp.structure
	m := len(members)
	local := make(map[int]int, m)
	for l, gi := range members {
		local[int(gi)] = l
	}
	coef := make([][]expr.Expr, m)
	bvec := make([]expr.Expr, m)
	for l, gi := range members {
		i := int(gi)
		row := make([]expr.Expr, m)
		for j := range row {
			row[j] = expr.Num(0)
		}
		acc := expr.Expr(expr.Num(0))
		for _, ti := range fs.outEdges[i] {
			tr := &comp.transitions[ti]
			A := edges[ti]
			if isZeroExpr(A) {
				continue
			}
			switch {
			case tr.to < 0:
				acc = b.add(acc, A)
			case fs.sccOf[tr.to] == int32(c):
				row[local[tr.to]] = b.add(row[local[tr.to]], A)
			default:
				acc = b.add(acc, b.mul(A, x[tr.to]))
			}
		}
		coef[l] = row
		bvec[l] = acc
	}
	for l := 0; l < m; l++ {
		d := b.oneMinus(coef[l][l])
		if isZeroExpr(d) {
			return fmt.Errorf("%w: %s: state %q traps probability mass in a self-loop",
				ErrNoParametricForm, svc.name, transientStateName(comp, int(members[l])))
		}
		bvec[l] = b.div(bvec[l], d)
		for j := l + 1; j < m; j++ {
			coef[l][j] = b.div(coef[l][j], d)
		}
		for i2 := l + 1; i2 < m; i2++ {
			f := coef[i2][l]
			if isZeroExpr(f) {
				continue
			}
			bvec[i2] = b.add(bvec[i2], b.mul(f, bvec[l]))
			for j := l + 1; j < m; j++ {
				coef[i2][j] = b.add(coef[i2][j], b.mul(f, coef[l][j]))
			}
		}
		if b.overBudget() {
			return b.budgetErr(svc)
		}
	}
	for l := m - 1; l >= 0; l-- {
		acc := bvec[l]
		for j := l + 1; j < m; j++ {
			acc = b.add(acc, b.mul(coef[l][j], x[int(members[j])]))
		}
		x[int(members[l])] = acc
	}
	return nil
}

// stateFailure mirrors the numeric session's stateFailure symbolically:
// inline every request's actual parameters, recurse into the provider and
// connector, and combine under the completion/dependency model.
func (b *symBuilder) stateFailure(svc *compiledService, st *compiledState, actuals []expr.Expr) (expr.Expr, error) {
	if len(st.requests) == 0 {
		return expr.Num(0), nil
	}
	ints := make([]expr.Expr, len(st.requests))
	exts := make([]expr.Expr, len(st.requests))
	for i := range st.requests {
		req := &st.requests[i]
		childActs := make([]expr.Expr, len(req.paramSrc))
		for j, ps := range req.paramSrc {
			childActs[j] = b.substInto(ps, svc.formals, actuals)
		}
		pSvc, err := b.pfail(req.provider, childActs)
		if err != nil {
			return nil, err
		}
		pConn := expr.Expr(expr.Num(0))
		if req.connector >= 0 {
			connActs := make([]expr.Expr, len(req.connParamSrc))
			for j, ps := range req.connParamSrc {
				connActs[j] = b.substInto(ps, svc.formals, actuals)
			}
			pConn, err = b.pfail(req.connector, connActs)
			if err != nil {
				return nil, err
			}
		}
		pInt := expr.Expr(expr.Num(0))
		if req.internalSrc != nil {
			pInt = b.substInto(req.internalSrc, svc.formals, actuals)
		}
		ints[i] = pInt
		// Pfail_ext = 1 - (1-P_conn)(1-P_svc), paper eq. (4).
		exts[i] = b.oneMinus(b.mul(b.oneMinus(pConn), b.oneMinus(pSvc)))
	}
	return b.combineState(svc, st, ints, exts)
}

// combineState is model.CombineState over expressions: paper equations
// (6), (7), (11), (12) and the Poisson-binomial K-of-N forms, built with
// the same association order as the numeric code so the closed form tracks
// it to rounding.
func (b *symBuilder) combineState(svc *compiledService, st *compiledState, ints, exts []expr.Expr) (expr.Expr, error) {
	totalOK := func(i int) expr.Expr { // (1-P_int)(1-P_ext) = 1 - P_total
		return b.mul(b.oneMinus(ints[i]), b.oneMinus(exts[i]))
	}
	switch st.completion {
	case model.AND:
		switch st.dependency {
		case model.NoSharing:
			noFail := expr.Expr(expr.Num(1))
			for i := range ints {
				noFail = b.mul(noFail, totalOK(i))
			}
			return b.oneMinus(noFail), nil
		case model.Sharing:
			intOK := expr.Expr(expr.Num(1))
			extOK := expr.Expr(expr.Num(1))
			for i := range ints {
				intOK = b.mul(intOK, b.oneMinus(ints[i]))
				extOK = b.mul(extOK, b.oneMinus(exts[i]))
			}
			return b.oneMinus(b.mul(intOK, extOK)), nil
		}
	case model.OR:
		switch st.dependency {
		case model.NoSharing:
			allFail := expr.Expr(expr.Num(1))
			for i := range ints {
				allFail = b.mul(allFail, b.oneMinus(totalOK(i)))
			}
			return allFail, nil
		case model.Sharing:
			extOK := expr.Expr(expr.Num(1))
			intFail := expr.Expr(expr.Num(1))
			for i := range ints {
				extOK = b.mul(extOK, b.oneMinus(exts[i]))
				intFail = b.mul(intFail, ints[i])
			}
			// Fails unless the shared transfer succeeds and at least one
			// internal computation succeeds.
			return b.oneMinus(b.mul(extOK, b.oneMinus(intFail))), nil
		}
	case model.KOfN:
		k := st.k
		if k < 1 || k > len(ints) {
			return nil, fmt.Errorf("%w: %s state %q: K=%d of %d requests", ErrNoParametricForm, svc.name, st.name, k, len(ints))
		}
		switch st.dependency {
		case model.NoSharing:
			succ := make([]expr.Expr, len(ints))
			for i := range ints {
				succ[i] = totalOK(i)
			}
			return b.poissonTailBelow(succ, k), nil
		case model.Sharing:
			extOK := expr.Expr(expr.Num(1))
			succ := make([]expr.Expr, len(ints))
			for i := range ints {
				extOK = b.mul(extOK, b.oneMinus(exts[i]))
				succ[i] = b.oneMinus(ints[i])
			}
			tail := b.poissonTailBelow(succ, k)
			return b.add(b.oneMinus(extOK), b.mul(extOK, tail)), nil
		}
	}
	return nil, fmt.Errorf("%w: %s state %q: unsupported completion/dependency", ErrNoParametricForm, svc.name, st.name)
}

// poissonTailBelow is the symbolic Poisson-binomial tail P[#successes < k]
// over independent success probabilities, the same O(n·k) DP recurrence
// model.CombineState runs numerically.
func (b *symBuilder) poissonTailBelow(success []expr.Expr, k int) expr.Expr {
	dist := make([]expr.Expr, k+1)
	dist[0] = expr.Num(1)
	for j := 1; j <= k; j++ {
		dist[j] = expr.Num(0)
	}
	for _, p := range success {
		q := b.oneMinus(p)
		for j := k; j >= 1; j-- {
			dist[j] = b.add(b.mul(dist[j], q), b.mul(dist[j-1], p))
		}
		dist[0] = b.mul(dist[0], q)
	}
	tail := expr.Expr(expr.Num(0))
	for j := 0; j < k; j++ {
		tail = b.add(tail, dist[j])
	}
	return tail
}

// lowerForEval rewrites a closed form for evaluation speed without
// changing its value: constant-base powers become exponentials
// (c^x = exp(x·ln c), valid for c > 0) and exponential factors of a
// product merge into one (exp(a)·exp(b) = exp(a+b)). The reliability
// factors the chain solve multiplies together are almost all of these two
// shapes — (1-phi)^ops software laws and exp(-rate·ops/speed) resource
// laws — so lowering collapses a whole product group into a single
// transcendental call per point. Only the compiled programs evaluate the
// lowered form; ClosedForm keeps the paper-shaped original.
func lowerForEval(e expr.Expr) expr.Expr {
	memo := make(map[expr.Expr]expr.Expr)
	var lower func(expr.Expr) expr.Expr
	lower = func(e expr.Expr) expr.Expr {
		if out, ok := memo[e]; ok {
			return out
		}
		out := e
		switch t := e.(type) {
		case *expr.Neg:
			if x := lower(t.X); x != t.X {
				out = &expr.Neg{X: x}
			}
		case *expr.CallExpr:
			args := make([]expr.Expr, len(t.Args))
			changed := false
			for i, a := range t.Args {
				args[i] = lower(a)
				changed = changed || args[i] != t.Args[i]
			}
			if changed {
				out = &expr.CallExpr{Name: t.Name, Args: args}
			}
		case *expr.Binary:
			l, r := lower(t.L), lower(t.R)
			if c, ok := l.(expr.Num); ok && t.Op == expr.OpPow && float64(c) > 0 && !math.IsInf(float64(c), 0) {
				switch ln := math.Log(float64(c)); ln {
				case 0:
					out = expr.Num(1)
				default:
					out = expr.Call1("exp", expr.Mul(expr.Num(ln), r))
				}
			} else if l != t.L || r != t.R {
				out = &expr.Binary{Op: t.Op, L: l, R: r}
			}
			if bo, ok := out.(*expr.Binary); ok && bo.Op == expr.OpMul {
				out = mergeExpFactors(bo)
			}
		}
		memo[e] = out
		return out
	}
	return lower(e)
}

// mergeExpFactors collapses the exponential factors of a (possibly
// nested) product into one exp of a sum; e's subterms are already
// lowered. Returns e unchanged when fewer than two factors are exps.
func mergeExpFactors(e *expr.Binary) expr.Expr {
	var expArgs, rest []expr.Expr
	var flatten func(expr.Expr)
	flatten = func(f expr.Expr) {
		if b, ok := f.(*expr.Binary); ok && b.Op == expr.OpMul {
			flatten(b.L)
			flatten(b.R)
			return
		}
		if c, ok := f.(*expr.CallExpr); ok && c.Name == "exp" && len(c.Args) == 1 {
			expArgs = append(expArgs, c.Args[0])
			return
		}
		rest = append(rest, f)
	}
	flatten(e)
	if len(expArgs) < 2 {
		return e
	}
	sum := expArgs[0]
	for _, a := range expArgs[1:] {
		sum = expr.Add(sum, a)
	}
	out := expr.Expr(expr.Call1("exp", sum))
	for i := len(rest) - 1; i >= 0; i-- {
		out = expr.Mul(rest[i], out)
	}
	return out
}

// containsNaN reports whether the expression holds a NaN constant — the
// marker Derivative leaves on non-differentiable builtins.
func containsNaN(e expr.Expr) bool {
	seen := make(map[expr.Expr]bool)
	var walk func(expr.Expr) bool
	walk = func(e expr.Expr) bool {
		if seen[e] {
			return false
		}
		seen[e] = true
		switch t := e.(type) {
		case expr.Num:
			return math.IsNaN(float64(t))
		case *expr.Neg:
			return walk(t.X)
		case *expr.Binary:
			return walk(t.L) || walk(t.R)
		case *expr.CallExpr:
			for _, a := range t.Args {
				if walk(a) {
					return true
				}
			}
		}
		return false
	}
	return walk(e)
}

// transientStateName recovers the flow-state name of a transient slot for
// error messages (never on a hot path).
func transientStateName(comp *compiledComposite, idx int) string {
	if idx == 0 {
		return model.StartState
	}
	for i := range comp.states {
		if comp.states[i].transient == idx {
			return comp.states[i].name
		}
	}
	for i := range comp.transitions {
		if comp.transitions[i].from == idx {
			return comp.transitions[i].fromName
		}
		if comp.transitions[i].to == idx {
			return comp.transitions[i].toName
		}
	}
	return fmt.Sprintf("state#%d", idx)
}

// evalParametricPoint evaluates a closed-form program at one point with
// panic isolation, allocation-free on the success path.
func evalParametricPoint(prog *expr.Program, slots, stack []float64) (v float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = 0, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return prog.Eval(slots, stack)
}

// evalParametricLane is EvalLane with the same panic isolation.
func evalParametricLane(prog *expr.Program, slots []float64, lanes int, out, stack []float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return prog.EvalLane(slots, lanes, out, stack)
}

// parametricChunk evaluates one batch chunk through the closed form,
// returning false (with out restored to NaN) when any point must be
// re-derived by the numeric kernel instead.
func (ca *CompiledAssembly) parametricChunk(po *parametricOutput, s *session, pts [][]float64, out []float64) bool {
	k := len(pts)
	for _, p := range pts {
		if len(p) != po.arity {
			return false // numeric path reports the arity error per point
		}
	}
	if k == 1 {
		v, err := evalParametricPoint(po.prog, pts[0], s.stack)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		out[0] = clamp01(v)
		return true
	}
	need := po.arity * k
	if cap(s.chunkSlots) < need {
		s.chunkSlots = make([]float64, 0, max(need, 64))
	}
	slots := s.chunkSlots[:need]
	for si := 0; si < po.arity; si++ {
		row := slots[si*k : si*k+k]
		for kk := 0; kk < k; kk++ {
			row[kk] = pts[kk][si]
		}
	}
	if err := evalParametricLane(po.prog, slots, k, out, s.stack); err != nil {
		return false // EvalLane writes out only on success
	}
	for i := range out {
		if math.IsNaN(out[i]) || math.IsInf(out[i], 0) {
			for j := range out {
				out[j] = math.NaN()
			}
			return false
		}
	}
	for i := range out {
		out[i] = clamp01(out[i])
	}
	return true
}
