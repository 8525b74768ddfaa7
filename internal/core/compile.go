// Compile phase of the engine: walk an assembly once, resolve every
// (caller, role) binding, compile every expression to a slot program, and
// pre-build per-composite augmented-chain skeletons, yielding an immutable
// CompiledAssembly whose per-invocation work is reduced to filling numeric
// entries and re-solving a pre-shaped linear system.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"

	"socrel/internal/expr"
	"socrel/internal/markov"
	"socrel/internal/model"
)

// ErrNotCompilable is returned by Compile for assemblies the compiled
// engine does not support: recursive assemblies (use the interpreted
// engine with CycleFixedPoint), the iterative Markov solver, or flows
// above the dense-solver size threshold under MethodAuto.
var ErrNotCompilable = errors.New("core: assembly not compilable")

// compiledService is one service of a CompiledAssembly; exactly one of
// simple / comp is set.
type compiledService struct {
	name    string
	arity   int
	simple  *compiledSimple
	comp    *compiledComposite
	formals []string
}

// compiledSimple is a simple service's failure law as a program. src is
// the folded symbolic form the program was emitted from, retained for the
// parametric compiler.
type compiledSimple struct {
	prog     *expr.Program
	src      expr.Expr
	constVal float64
	isConst  bool
}

// compiledRequest is a request with its binding resolved up front. The
// *Src fields hold the folded symbolic forms of the corresponding
// programs, retained for the parametric compiler.
type compiledRequest struct {
	role         string
	provider     int // index into CompiledAssembly.services
	connector    int // index, or -1 for a perfect connection
	params       []*expr.Program
	connParams   []*expr.Program
	internal     *expr.Program // nil = perfectly reliable invocation
	paramSrc     []expr.Expr
	connParamSrc []expr.Expr
	internalSrc  expr.Expr
}

// compiledState is one working state of a flow.
type compiledState struct {
	name       string
	completion model.Completion
	k          int
	dependency model.Dependency
	transient  int // index in the skeleton's transient ordering
	requests   []compiledRequest
}

// compiledTransition is one flow edge with its probability program. src
// is the folded symbolic form, retained for the parametric compiler.
type compiledTransition struct {
	fromName, toName string
	from             int // transient index of the source state
	to               int // transient index of the target, or -1 for End
	prog             *expr.Program
	src              expr.Expr
	constVal         float64
	isConst          bool
}

// compiledComposite is the pre-built augmented-chain skeleton of a
// composite service: fixed state indexing (Start first, then working
// states in the same first-encounter order the interpreted engine's chain
// uses, so the two paths factorize identical matrices), fixed transition
// topology, and precompiled probability programs.
type compiledComposite struct {
	states      []compiledState
	transitions []compiledTransition
	n           int // number of transient states (Start + working states)
	maxRequests int
	structure   *flowStructure // one-time SCC/topology analysis (see structure.go)
}

func isEndName(name string) bool { return name == model.EndState }

// compiler accumulates state during a Compile walk.
type compiler struct {
	resolver model.Resolver
	opts     Options
	ca       *CompiledAssembly
	status   map[string]int // 0 unseen, 1 in progress, 2 done
	maxStack int
	maxArity int
	// validated reports that every service the resolver returns has been
	// validated already (an assembly from adl's BuildAssembly).
	validated bool
}

// Compile walks the assembly reachable from the given root services and
// returns an immutable CompiledAssembly safe for concurrent use. Every
// binding is resolved, every expression is compiled (unknown identifiers
// are rejected here instead of at evaluation time), and every composite
// gets a reusable chain skeleton. Compile rejects recursive assemblies,
// the CycleFixedPoint policy, and the iterative solver with
// ErrNotCompilable; use the interpreted Evaluator for those. Every service
// is validated first, and a composite that fails validation is rejected
// with ErrDefectiveFlow.
func Compile(resolver model.Resolver, opts Options, roots ...string) (*CompiledAssembly, error) {
	return compile(resolver, opts, false, roots)
}

// compile is Compile; validated skips the validation of each service, for
// a resolver whose services have all been validated.
func compile(resolver model.Resolver, opts Options, validated bool, roots []string) (ca *CompiledAssembly, err error) {
	// Compilation const-folds expressions (including builtin calls), so a
	// defective failure law can panic here instead of at evaluation time;
	// isolate it the same way.
	defer func() {
		if r := recover(); r != nil {
			ca, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	opts = opts.withDefaults()
	if opts.Cycles != CycleError {
		return nil, fmt.Errorf("%w: cycle policy %d (compiled engine is acyclic; use the interpreted Evaluator)", ErrNotCompilable, opts.Cycles)
	}
	if opts.Method == markov.MethodIterative {
		return nil, fmt.Errorf("%w: iterative solver (compiled skeletons use the dense workspace solver)", ErrNotCompilable)
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("%w: no root services", ErrNotCompilable)
	}
	c := &compiler{
		resolver: resolver,
		opts:     opts,
		ca: &CompiledAssembly{
			opts:   opts,
			byName: make(map[string]int),
		},
		status:    make(map[string]int),
		validated: validated,
	}
	for _, root := range roots {
		svc, err := resolver.ServiceByName(root)
		if err != nil {
			return nil, err
		}
		if _, err := c.compileService(svc); err != nil {
			return nil, err
		}
	}
	c.ca.maxStack = max(c.maxStack, 1)
	c.ca.maxArity = c.maxArity
	c.ca.init()
	return c.ca, nil
}

// compileService compiles one service (and, recursively, everything it
// requests) and returns its index.
func (c *compiler) compileService(svc model.Service) (int, error) {
	name := svc.Name()
	if idx, ok := c.ca.byName[name]; ok {
		return idx, nil
	}
	if c.status[name] == 1 {
		return 0, fmt.Errorf("%w: cycle through %s", ErrRecursiveAssembly, name)
	}
	c.status[name] = 1
	defer func() { c.status[name] = 2 }()

	if err := c.validate(svc); err != nil {
		return 0, err
	}
	formals := svc.FormalParams()
	cs := &compiledService{name: name, arity: len(formals), formals: formals}
	if cs.arity > c.maxArity {
		c.maxArity = cs.arity
	}

	switch s := svc.(type) {
	case *model.Simple:
		prog, src, err := c.compileExpr(s.PfailExpr(), formals, s.Attributes())
		if err != nil {
			return 0, fmt.Errorf("core: compile %s failure law: %w", name, err)
		}
		simple := &compiledSimple{prog: prog, src: src}
		if v, ok := prog.Const(); ok {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("%w: %s failure law is constant %g", ErrNonFinite, name, v)
			}
			simple.constVal, simple.isConst = clamp01(v), true
		}
		cs.simple = simple
	case *model.Composite:
		comp, err := c.compileComposite(s)
		if err != nil {
			return 0, err
		}
		cs.comp = comp
	default:
		return 0, fmt.Errorf("%w: unsupported service type %T", model.ErrInvalidService, svc)
	}
	idx := len(c.ca.services)
	c.ca.services = append(c.ca.services, cs)
	c.ca.byName[name] = idx
	return idx, nil
}

// validate checks svc unless the resolver's services are known valid.
func (c *compiler) validate(svc model.Service) error {
	if c.validated {
		return nil
	}
	err := svc.Validate()
	if _, isComposite := svc.(*model.Composite); isComposite && err != nil {
		// A composite fails validation for structural flow defects (bad
		// constant probabilities or row sums, duplicate edges, reserved
		// states); surface them under the taxonomy.
		return fmt.Errorf("%w: %w", ErrDefectiveFlow, err)
	}
	return err
}

// compileExpr compiles e to a slot program and also returns the folded
// symbolic form the program was emitted from (attributes bound in, slots
// left free), which the parametric compiler substitutes into. e is folded
// once, and the program shares the folded tree.
func (c *compiler) compileExpr(e expr.Expr, formals []string, attrs model.Attrs) (*expr.Program, expr.Expr, error) {
	folded := expr.Fold(e, formals, attrs)
	prog, err := expr.CompileFolded(folded, formals)
	if err != nil {
		return nil, nil, err
	}
	if prog.MaxStack() > c.maxStack {
		c.maxStack = prog.MaxStack()
	}
	return prog, folded, nil
}

// compileComposite builds the chain skeleton and per-state request plans
// for one composite, resolving all bindings and validating what can be
// validated statically.
func (c *compiler) compileComposite(svc *model.Composite) (*compiledComposite, error) {
	name := svc.Name()
	formals := svc.FormalParams()
	attrs := svc.Attributes()
	flow := svc.Flow()

	// Transient ordering: Start first, then states in first-encounter
	// order over the transition list — exactly the order the interpreted
	// engine's markov.Chain assigns indices in, so both paths present the
	// same matrix to the same LU algorithm.
	transientIdx := map[string]int{model.StartState: 0}
	n := 1
	order := func(state string) int {
		if isEndName(state) {
			return -1
		}
		if i, ok := transientIdx[state]; ok {
			return i
		}
		transientIdx[state] = n
		n++
		return n - 1
	}

	comp := &compiledComposite{}
	for _, tr := range flow.Transitions() {
		prog, src, err := c.compileExpr(tr.Prob, formals, attrs)
		if err != nil {
			return nil, fmt.Errorf("core: compile %s transition %s -> %s: %w", name, tr.From, tr.To, err)
		}
		ct := compiledTransition{
			fromName: tr.From,
			toName:   tr.To,
			from:     order(tr.From),
			to:       order(tr.To),
			prog:     prog,
			src:      src,
		}
		if v, ok := prog.Const(); ok {
			ct.constVal, ct.isConst = v, true
		}
		comp.transitions = append(comp.transitions, ct)
	}

	// Working states in flow order, with bindings resolved up front.
	// Compile-time flow validation (constant transition probabilities in
	// [0,1], constant outgoing sums of one, duplicate edges) has already
	// run: compileService validates every service before this point (for
	// CompileDocument, BuildAssembly has), whereas the interpreted engine
	// never validates and only surfaces such defects as ErrBadTransition
	// mid-evaluation.
	for _, st := range flow.States() {
		if st.Name == model.StartState || isEndName(st.Name) {
			continue
		}
		cstate := compiledState{
			name:       st.Name,
			completion: st.Completion,
			k:          st.K,
			dependency: st.Dependency,
			transient:  order(st.Name),
		}
		var sharedProvider, sharedConnector string
		for i, req := range st.Requests {
			providerName, connectorName, err := c.resolver.Bind(name, req.Role)
			if errors.Is(err, model.ErrNoBinding) {
				providerName, connectorName = req.Role, ""
			} else if err != nil {
				return nil, fmt.Errorf("%w: compile %s state %q request %q: %w", ErrUnresolvedBinding, name, st.Name, req.Role, err)
			}
			if st.Dependency == model.Sharing {
				if i == 0 {
					sharedProvider, sharedConnector = providerName, connectorName
				} else if providerName != sharedProvider || connectorName != sharedConnector {
					return nil, fmt.Errorf("%w: %q vs %q", ErrInvalidSharing,
						sharedProvider+"/"+sharedConnector, providerName+"/"+connectorName)
				}
			}
			provider, err := c.resolver.ServiceByName(providerName)
			if err != nil {
				return nil, fmt.Errorf("%w: compile %s state %q request %q -> %s: %w", ErrUnresolvedBinding, name, st.Name, req.Role, providerName, err)
			}
			provIdx, err := c.compileService(provider)
			if err != nil {
				return nil, err
			}
			creq := compiledRequest{role: req.Role, provider: provIdx, connector: -1}
			if len(req.Params) != c.ca.services[provIdx].arity {
				return nil, fmt.Errorf("%w: %s expects %d, got %d", model.ErrArity,
					providerName, c.ca.services[provIdx].arity, len(req.Params))
			}
			for _, e := range req.Params {
				prog, src, err := c.compileExpr(e, formals, attrs)
				if err != nil {
					return nil, fmt.Errorf("core: compile %s state %q request %q params: %w", name, st.Name, req.Role, err)
				}
				creq.params = append(creq.params, prog)
				creq.paramSrc = append(creq.paramSrc, src)
			}
			if connectorName != "" {
				connector, err := c.resolver.ServiceByName(connectorName)
				if err != nil {
					return nil, fmt.Errorf("%w: compile %s state %q request %q connector -> %s: %w", ErrUnresolvedBinding, name, st.Name, req.Role, connectorName, err)
				}
				connIdx, err := c.compileService(connector)
				if err != nil {
					return nil, err
				}
				creq.connector = connIdx
				if len(req.ConnParams) != c.ca.services[connIdx].arity {
					return nil, fmt.Errorf("%w: %s expects %d, got %d", model.ErrArity,
						connectorName, c.ca.services[connIdx].arity, len(req.ConnParams))
				}
				for _, e := range req.ConnParams {
					prog, src, err := c.compileExpr(e, formals, attrs)
					if err != nil {
						return nil, fmt.Errorf("core: compile %s state %q request %q connector params: %w", name, st.Name, req.Role, err)
					}
					creq.connParams = append(creq.connParams, prog)
					creq.connParamSrc = append(creq.connParamSrc, src)
				}
			}
			if req.Internal != nil {
				prog, src, err := c.compileExpr(req.Internal, formals, attrs)
				if err != nil {
					return nil, fmt.Errorf("core: compile %s state %q request %q internal failure: %w", name, st.Name, req.Role, err)
				}
				creq.internal = prog
				creq.internalSrc = src
			}
			cstate.requests = append(cstate.requests, creq)
		}
		if len(cstate.requests) > comp.maxRequests {
			comp.maxRequests = len(cstate.requests)
		}
		comp.states = append(comp.states, cstate)
	}
	comp.n = n
	if c.opts.Method == markov.MethodAuto && n > denseAutoThreshold {
		return nil, fmt.Errorf("%w: %s has %d transient states (> %d; MethodAuto would use the iterative solver)",
			ErrNotCompilable, name, n, denseAutoThreshold)
	}
	comp.structure = analyzeStructure(comp)
	return comp, nil
}

// denseAutoThreshold mirrors the markov package's MethodAuto dense/sparse
// switch point: above it the interpreted engine solves iteratively, which
// the compiled skeletons do not reproduce.
const denseAutoThreshold = 256
