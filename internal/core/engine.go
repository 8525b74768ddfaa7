// Package core implements the paper's contribution: the recursive,
// compositional reliability-evaluation procedure Pfail_Alg of section 3.3.
//
// For a composite service invoked with concrete actual parameters, the
// engine (1) recursively evaluates the failure probability of every
// requested service and connector, propagating actual parameters as
// functions of the caller's formal parameters; (2) combines per-request
// failure probabilities into per-state failure probabilities under the
// state's completion and dependency models (equations 4-14); (3) augments
// the usage-profile flow with the failure structure — a Fail absorbing
// state, per-state failure transitions, and rescaled working transitions —
// and (4) solves the resulting absorbing Markov chain for the probability
// of reaching End from Start (equation 3).
//
// The paper's procedure rejects recursive (cyclic) assemblies; the engine
// additionally offers the fixed-point evaluation the paper proposes as
// future work, iterating unreliability estimates of in-cycle invocations to
// convergence.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"socrel/internal/expr"
	"socrel/internal/linalg"
	"socrel/internal/markov"
	"socrel/internal/model"
)

// Errors returned by the engine.
var (
	// ErrRecursiveAssembly is returned when services recursively call each
	// other and the cycle policy is CycleError (the paper's stated
	// limitation at the end of section 3.3).
	ErrRecursiveAssembly = errors.New("core: recursive service assembly")
	// ErrNoConvergence is returned when fixed-point evaluation does not
	// converge within the iteration budget.
	ErrNoConvergence = errors.New("core: fixed point did not converge")
	// ErrInvalidSharing is returned when a Sharing state's requests resolve
	// to different providers or connectors, violating the paper's sharing
	// model restriction.
	ErrInvalidSharing = errors.New("core: sharing state resolves to multiple providers")
	// ErrBadTransition is returned when a transition probability expression
	// evaluates outside [0, 1]. It wraps ErrDefectiveFlow: a bad
	// probability is one way a flow fails to form a valid chain.
	ErrBadTransition = fmt.Errorf("%w: transition probability outside [0,1]", ErrDefectiveFlow)
)

// CyclePolicy selects how the engine treats recursive assemblies.
type CyclePolicy int

// Cycle policies.
const (
	// CycleError rejects recursive assemblies with ErrRecursiveAssembly.
	CycleError CyclePolicy = iota + 1
	// CycleFixedPoint solves recursive assemblies by fixed-point iteration
	// on the unreliability of in-cycle invocations, starting from zero
	// (the least fixed point).
	CycleFixedPoint
)

// Options configures an Evaluator.
type Options struct {
	// Method selects the Markov solver (default markov.MethodAuto).
	Method markov.Method
	// Cycles selects the cycle policy (default CycleError).
	Cycles CyclePolicy
	// FixedPointTol is the convergence threshold for CycleFixedPoint
	// (default 1e-12).
	FixedPointTol float64
	// FixedPointMaxIter bounds fixed-point sweeps (default 10000).
	FixedPointMaxIter int
	// IterTol is the convergence threshold of the iterative Markov solver
	// (MethodIterative, or MethodAuto above the dense threshold). Zero
	// keeps the linalg default (1e-12).
	IterTol float64
	// IterMaxIter bounds the iterative Markov solver's sweeps. Zero keeps
	// the linalg default (100000). Exhausting the budget surfaces
	// ErrNoConvergence carrying the sweep count and final residual.
	IterMaxIter int
}

func (o Options) withDefaults() Options {
	if o.Cycles == 0 {
		o.Cycles = CycleError
	}
	if o.FixedPointTol <= 0 {
		o.FixedPointTol = 1e-12
	}
	if o.FixedPointMaxIter <= 0 {
		o.FixedPointMaxIter = 10000
	}
	return o
}

// Evaluator computes service failure probabilities against a resolver
// (typically an assembly) by interpreting Pfail_Alg on every call; it never
// compiles, so it is the reference the compiled engines are checked
// against. It memoizes (service, parameters) invocations, so a single
// Evaluator assumes its resolver and service definitions do not change;
// create a new Evaluator after modifying an assembly.
type Evaluator struct {
	resolver model.Resolver
	opts     Options

	// ctx is the context of the entry point currently on the stack;
	// context.Background outside the Ctx entry points. The interpreted
	// engine is single-goroutine, so a plain field suffices.
	ctx context.Context

	memo       map[string]float64
	inProgress map[string]bool

	// Fixed-point state.
	estimates   map[string]float64
	usedEst     bool
	sweepDelta  float64
	inFixedLoop bool
}

// New returns an Evaluator over the given resolver.
func New(resolver model.Resolver, opts Options) *Evaluator {
	return &Evaluator{
		resolver:   resolver,
		opts:       opts.withDefaults(),
		ctx:        context.Background(),
		memo:       make(map[string]float64),
		inProgress: make(map[string]bool),
		estimates:  make(map[string]float64),
	}
}

// Pfail returns the failure probability of the named service invoked with
// the given actual parameters: Pfail(S, fp) of equation (3).
func (ev *Evaluator) Pfail(service string, params ...float64) (float64, error) {
	return ev.PfailCtx(context.Background(), service, params...)
}

// PfailCtx is Pfail honoring cancellation: the evaluation checks ctx
// between invocations and inside iterative solves, and a canceled context
// surfaces as ErrCanceled.
func (ev *Evaluator) PfailCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	svc, err := ev.resolver.ServiceByName(service)
	if err != nil {
		return 0, err
	}
	return ev.PfailServiceCtx(ctx, svc, params...)
}

// Reliability returns 1 - Pfail for the named service.
func (ev *Evaluator) Reliability(service string, params ...float64) (float64, error) {
	p, err := ev.Pfail(service, params...)
	if err != nil {
		return 0, err
	}
	return 1 - p, nil
}

// ReliabilityCtx is Reliability honoring cancellation.
func (ev *Evaluator) ReliabilityCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	p, err := ev.PfailCtx(ctx, service, params...)
	if err != nil {
		return 0, err
	}
	return 1 - p, nil
}

// PfailService evaluates a service value directly (it does not need to be
// registered with the resolver, but any roles it requests are resolved
// through it).
func (ev *Evaluator) PfailService(svc model.Service, params ...float64) (float64, error) {
	return ev.PfailServiceCtx(context.Background(), svc, params...)
}

// PfailServiceCtx is PfailService honoring cancellation. It is also the
// taxonomy boundary: failures from any layer are classified, panics are
// isolated into ErrPanic, and a canceled context surfaces as ErrCanceled.
func (ev *Evaluator) PfailServiceCtx(ctx context.Context, svc model.Service, params ...float64) (float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	prev := ev.ctx
	ev.ctx = ctx
	defer func() { ev.ctx = prev }()
	p, err := guardPfail(func() (float64, error) { return ev.pfailService(svc, params) })
	if err != nil {
		return 0, classify(err)
	}
	return p, nil
}

func (ev *Evaluator) pfailService(svc model.Service, params []float64) (float64, error) {
	if ev.opts.Cycles != CycleFixedPoint {
		p, _, err := ev.eval(svc, params, false)
		return p, err
	}
	// Fixed-point outer loop: repeat full evaluations, updating the
	// estimate of every completed invocation, until a sweep changes no
	// estimate by more than the tolerance. Estimates start at zero on
	// every call, so the iteration ascends to the least fixed point and
	// the answer does not depend on earlier calls.
	clear(ev.estimates)
	ev.inFixedLoop = true
	defer func() { ev.inFixedLoop = false }()
	var p float64
	for iter := 0; iter < ev.opts.FixedPointMaxIter; iter++ {
		if err := ev.ctx.Err(); err != nil {
			return 0, fmt.Errorf("core: fixed point canceled after %d sweeps: %w", iter, err)
		}
		ev.memo = make(map[string]float64)
		ev.usedEst = false
		ev.sweepDelta = 0
		var err error
		p, _, err = ev.eval(svc, params, false)
		if err != nil {
			return 0, err
		}
		if !ev.usedEst {
			// No cycle was encountered; the value is exact.
			return p, nil
		}
		if ev.sweepDelta <= ev.opts.FixedPointTol {
			return p, nil
		}
	}
	return 0, fmt.Errorf("%w after %d sweeps (residual %g)", ErrNoConvergence, ev.opts.FixedPointMaxIter, ev.sweepDelta)
}

// invocationKey identifies a memoized (service, parameters) invocation.
func invocationKey(name string, params []float64) string {
	var sb strings.Builder
	sb.WriteString(name)
	for _, p := range params {
		sb.WriteByte('|')
		sb.WriteString(strconv.FormatFloat(p, 'g', 17, 64))
	}
	return sb.String()
}

// eval computes Pfail for one invocation. When wantReport is true it also
// returns the per-state breakdown for the top-level service.
func (ev *Evaluator) eval(svc model.Service, params []float64, wantReport bool) (float64, []StateReport, error) {
	if err := ev.ctx.Err(); err != nil {
		return 0, nil, fmt.Errorf("core: %s: %w", svc.Name(), err)
	}
	key := invocationKey(svc.Name(), params)
	if !wantReport {
		if p, ok := ev.memo[key]; ok {
			return p, nil, nil
		}
	}
	if ev.inProgress[key] {
		if ev.opts.Cycles == CycleFixedPoint {
			ev.usedEst = true
			return ev.estimates[key], nil, nil
		}
		return 0, nil, fmt.Errorf("%w: cycle through %s(%v)", ErrRecursiveAssembly, svc.Name(), params)
	}

	switch s := svc.(type) {
	case *model.Simple:
		p, err := s.Pfail(params)
		if err != nil {
			return 0, nil, err
		}
		ev.memo[key] = p
		return p, nil, nil

	case *model.Composite:
		ev.inProgress[key] = true
		defer delete(ev.inProgress, key)
		p, states, err := ev.evalComposite(s, params, wantReport)
		if err != nil {
			return 0, nil, err
		}
		ev.memo[key] = p
		if ev.inFixedLoop {
			delta := math.Abs(p - ev.estimates[key])
			if delta > ev.sweepDelta {
				ev.sweepDelta = delta
			}
			ev.estimates[key] = p
		}
		return p, states, nil

	default:
		return 0, nil, fmt.Errorf("%w: unsupported service type %T", model.ErrInvalidService, svc)
	}
}

// evalComposite implements statements 2-14 of Pfail_Alg: augment the flow
// with its failure structure and solve for absorption into End.
func (ev *Evaluator) evalComposite(svc *model.Composite, params []float64, wantReport bool) (float64, []StateReport, error) {
	env, err := model.Env(svc, params)
	if err != nil {
		return 0, nil, err
	}
	flow := svc.Flow()

	// Per-state failure probabilities (statements 4-7).
	stateFail := make(map[string]float64)
	var reports []StateReport
	for _, st := range flow.States() {
		if st.Name == model.StartState || st.Name == model.EndState {
			continue
		}
		f, reqReports, err := ev.stateFailure(svc, st, env, wantReport)
		if err != nil {
			return 0, nil, atPath(err, svc.Name(), "state:"+st.Name)
		}
		stateFail[st.Name] = f
		if wantReport {
			reports = append(reports, StateReport{Name: st.Name, PFail: f, Requests: reqReports})
		}
	}

	// Build the augmented chain (statements 8-12): weigh existing
	// transitions by 1-f and add an f transition to Fail. Start never
	// fails (section 3.2).
	chain := markov.New()
	chain.AddState(model.StartState)
	chain.AddState(model.EndState)
	for _, tr := range flow.Transitions() {
		p, err := tr.Prob.Eval(env)
		if err != nil {
			return 0, nil, fmt.Errorf("core: %s transition %s -> %s: %w", svc.Name(), tr.From, tr.To, err)
		}
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return 0, nil, fmt.Errorf("%w: %s: P(%s -> %s) = %g", ErrNonFinite, svc.Name(), tr.From, tr.To, p)
		}
		if p < -1e-12 || p > 1+1e-12 {
			return 0, nil, fmt.Errorf("%w: %s: P(%s -> %s) = %g", ErrBadTransition, svc.Name(), tr.From, tr.To, p)
		}
		p *= 1 - stateFail[tr.From] // stateFail[Start] == 0
		if err := chain.SetTransition(tr.From, tr.To, clamp01(p)); err != nil {
			return 0, nil, fmt.Errorf("core: %s: %w", svc.Name(), err)
		}
	}
	for name, f := range stateFail {
		if f > 0 {
			if err := chain.SetTransition(name, model.FailState, f); err != nil {
				return 0, nil, fmt.Errorf("core: %s: %w", svc.Name(), err)
			}
		}
	}

	abs, err := markov.NewAbsorbingOpts(chain, ev.opts.Method, linalg.IterOptions{Tol: ev.opts.IterTol, MaxIter: ev.opts.IterMaxIter})
	if err != nil {
		return 0, nil, fmt.Errorf("core: %s: %w", svc.Name(), err)
	}
	pEnd, err := abs.AbsorptionProbabilityCtx(ev.ctx, model.StartState, model.EndState)
	if err != nil {
		return 0, nil, fmt.Errorf("core: %s: %w", svc.Name(), err)
	}
	return clamp01(1 - pEnd), reports, nil
}

// stateFailure evaluates p(i, Fail) for one flow state: resolve every
// request, recursively evaluate provider and connector failure
// probabilities, and combine under the completion/dependency model.
func (ev *Evaluator) stateFailure(svc *model.Composite, st *model.State, env expr.Env, wantReport bool) (float64, []RequestReport, error) {
	fails := make([]model.RequestFailure, len(st.Requests))
	var reports []RequestReport
	var sharedProvider, sharedConnector string
	for i, req := range st.Requests {
		providerName, connectorName, err := ev.resolver.Bind(svc.Name(), req.Role)
		if errors.Is(err, model.ErrNoBinding) {
			providerName, connectorName = req.Role, ""
		} else if err != nil {
			return 0, nil, fmt.Errorf("%w: %s/%s: %w", ErrUnresolvedBinding, svc.Name(), req.Role, err)
		}
		if st.Dependency == model.Sharing {
			if i == 0 {
				sharedProvider, sharedConnector = providerName, connectorName
			} else if providerName != sharedProvider || connectorName != sharedConnector {
				return 0, nil, fmt.Errorf("%w: %q vs %q", ErrInvalidSharing,
					sharedProvider+"/"+sharedConnector, providerName+"/"+connectorName)
			}
		}

		provider, err := ev.resolver.ServiceByName(providerName)
		if err != nil {
			return 0, nil, fmt.Errorf("%w: %s/%s -> %s: %w", ErrUnresolvedBinding, svc.Name(), req.Role, providerName, err)
		}
		apVals, err := evalExprs(req.Params, env)
		if err != nil {
			return 0, nil, fmt.Errorf("request %q params: %w", req.Role, err)
		}
		pSvc, _, err := ev.eval(provider, apVals, false)
		if err != nil {
			return 0, nil, err
		}

		var pConn float64
		if connectorName != "" {
			connector, err := ev.resolver.ServiceByName(connectorName)
			if err != nil {
				return 0, nil, fmt.Errorf("%w: %s/%s connector -> %s: %w", ErrUnresolvedBinding, svc.Name(), req.Role, connectorName, err)
			}
			cpVals, err := evalExprs(req.ConnParams, env)
			if err != nil {
				return 0, nil, fmt.Errorf("request %q connector params: %w", req.Role, err)
			}
			pConn, _, err = ev.eval(connector, cpVals, false)
			if err != nil {
				return 0, nil, err
			}
		}

		var pInt float64
		if req.Internal != nil {
			v, err := req.Internal.Eval(env)
			if err != nil {
				return 0, nil, fmt.Errorf("request %q internal failure: %w", req.Role, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, nil, fmt.Errorf("%w: request %q internal failure = %g", ErrNonFinite, req.Role, v)
			}
			pInt = clamp01(v)
		}
		fails[i] = model.RequestFailure{Int: pInt, Ext: model.ExtFailure(pConn, pSvc)}
		if wantReport {
			reports = append(reports, RequestReport{
				Role:           req.Role,
				Provider:       providerName,
				Connector:      connectorName,
				Params:         apVals,
				PInt:           pInt,
				PExt:           fails[i].Ext,
				ProviderPfail:  pSvc,
				ConnectorPfail: pConn,
			})
		}
	}
	f, err := model.CombineState(st.Completion, st.Dependency, st.K, fails)
	if err != nil {
		return 0, nil, err
	}
	return f, reports, nil
}

func evalExprs(exprs []expr.Expr, env expr.Env) ([]float64, error) {
	out := make([]float64, len(exprs))
	for i, e := range exprs {
		v, err := e.Eval(env)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
