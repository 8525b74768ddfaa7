// Package socrel is an architecture-based reliability prediction library
// for service-oriented computing, reproducing V. Grassi,
// "Architecture-Based Reliability Prediction for Service-Oriented
// Computing" (Architecting Dependable Systems III, LNCS 3549).
//
// A service publishes an analytic interface: formal parameters, attributes,
// and — for composite services — a usage-profile flow: a discrete-time
// Markov chain whose states contain cascading service requests under a
// completion model (AND / OR / k-of-n) and a dependency model (sharing /
// no sharing). Actual parameters, transition probabilities and failure laws
// are expressions over the formal parameters, which is what makes the
// prediction compositional: the engine propagates concrete parameter
// values down the assembly, adds a failure structure to each flow, and
// solves the resulting absorbing chains.
//
// # Quick start
//
//	cpu := socrel.NewCPU("cpu1", 1e9, 1e-10) // speed, failure rate
//	sorter := socrel.NewComposite("sorter", []string{"n"}, socrel.Attrs{"phi": 1e-6})
//	st, _ := sorter.Flow().AddState("work", socrel.AND, socrel.NoSharing)
//	st.AddRequest(socrel.Request{
//	    Role:     "cpu",
//	    Params:   []socrel.Expr{socrel.MustParseExpr("n * log2(n)")},
//	    Internal: socrel.SoftwareFailure(socrel.MustParseExpr("phi"), socrel.MustParseExpr("n * log2(n)")),
//	})
//	sorter.Flow().AddTransitionP(socrel.StartState, "work", 1)
//	sorter.Flow().AddTransitionP("work", socrel.EndState, 1)
//
//	asm := socrel.NewAssembly("demo")
//	asm.MustAddService(cpu)
//	asm.MustAddService(sorter)
//	asm.AddBinding("sorter", "cpu", "cpu1", "")
//
//	ev := socrel.NewEvaluator(asm, socrel.Options{})
//	rel, err := ev.Reliability("sorter", 1<<20)
//
// Subsystems re-exported here: the service model and connectors
// (internal/model), assemblies (internal/assembly), the evaluation engine
// (internal/core), the expression language (internal/expr), the Monte
// Carlo validator (internal/sim), the performance extension
// (internal/perf), the service registry with reliability-driven selection
// (internal/registry), the ADL (internal/adl), usage-profile estimation
// (internal/hmm), parameter studies (internal/sensitivity), and the
// self-healing runtime — retrying resolution, circuit-breaking health
// tracking, supervised rebinding, degraded-mode answers
// (internal/runtime; see extensions.go).
package socrel

import (
	"context"

	"socrel/internal/adl"
	"socrel/internal/assembly"
	"socrel/internal/core"
	"socrel/internal/expr"
	"socrel/internal/hmm"
	"socrel/internal/model"
	"socrel/internal/perf"
	"socrel/internal/registry"
	"socrel/internal/sensitivity"
	"socrel/internal/sim"
)

// Expression language.
type (
	// Expr is an immutable expression over formal parameters and
	// attributes.
	Expr = expr.Expr
	// Env binds identifiers to values during expression evaluation.
	Env = expr.Env
)

// ParseExpr parses expression source text.
func ParseExpr(source string) (Expr, error) { return expr.Parse(source) }

// MustParseExpr parses statically known-good expression text, panicking on
// error.
func MustParseExpr(source string) Expr { return expr.MustParse(source) }

// Num returns a numeric literal expression.
func Num(v float64) Expr { return expr.Num(v) }

// Var returns an identifier expression.
func Var(name string) Expr { return expr.Var(name) }

// Service model.
type (
	// Service is an analytic interface (simple or composite).
	Service = model.Service
	// Resolver resolves service names and role bindings; *Assembly is the
	// canonical implementation, and decorators (RetryResolver, fault
	// injectors) wrap one.
	Resolver = model.Resolver
	// Simple is a service with a closed-form failure law.
	Simple = model.Simple
	// Composite is a service realized by a flow of cascading requests.
	Composite = model.Composite
	// Flow is a composite service's usage profile.
	Flow = model.Flow
	// State is one flow state.
	State = model.State
	// Request is one cascading service request inside a state.
	Request = model.Request
	// Attrs holds the published attributes of an analytic interface.
	Attrs = model.Attrs
	// Completion selects how a state's requests must complete.
	Completion = model.Completion
	// Dependency selects the state's dependency model.
	Dependency = model.Dependency
	// RequestFailure is a request's (internal, external) failure pair.
	RequestFailure = model.RequestFailure
)

// Completion and dependency models (section 3.2 of the paper).
const (
	// AND requires every request of a state to complete.
	AND = model.AND
	// OR requires at least one request to complete.
	OR = model.OR
	// KOfN requires at least State.K requests to complete.
	KOfN = model.KOfN
	// NoSharing treats a state's requests as independent.
	NoSharing = model.NoSharing
	// Sharing models all requests of a state targeting one shared service.
	Sharing = model.Sharing
)

// Reserved flow state names.
const (
	// StartState is the entry state of every flow.
	StartState = model.StartState
	// EndState is the successful-completion absorbing state.
	EndState = model.EndState
)

// Connector roles bound by assemblies for the built-in connectors.
const (
	// RoleCPU is the LPC connector's processing role.
	RoleCPU = model.RoleCPU
	// RoleClientCPU is the RPC connector's client-side processing role.
	RoleClientCPU = model.RoleClientCPU
	// RoleServerCPU is the RPC connector's server-side processing role.
	RoleServerCPU = model.RoleServerCPU
	// RoleNet is the RPC connector's communication role.
	RoleNet = model.RoleNet
)

// NewSimple defines a simple service with an explicit failure-law
// expression over formals and attrs.
func NewSimple(name string, formals []string, attrs Attrs, pfail Expr) *Simple {
	return model.NewSimple(name, formals, attrs, pfail)
}

// NewCPU returns a processing resource: Pfail(N) = 1 - exp(-rate*N/speed)
// (equation 1 of the paper).
func NewCPU(name string, speed, failureRate float64) *Simple {
	return model.NewCPU(name, speed, failureRate)
}

// NewNetwork returns a communication resource:
// Pfail(B) = 1 - exp(-rate*B/bandwidth) (equation 2).
func NewNetwork(name string, bandwidth, failureRate float64) *Simple {
	return model.NewNetwork(name, bandwidth, failureRate)
}

// NewPerfect returns a perfectly reliable service (e.g. a "local
// processing" connector).
func NewPerfect(name string, formals ...string) *Simple {
	return model.NewPerfect(name, formals...)
}

// NewConstant returns a service with a constant failure probability.
func NewConstant(name string, pfail float64, formals ...string) *Simple {
	return model.NewConstant(name, pfail, formals...)
}

// NewComposite defines a composite service with an empty flow.
func NewComposite(name string, formals []string, attrs Attrs) *Composite {
	return model.NewComposite(name, formals, attrs)
}

// NewLPC builds the local-procedure-call connector of the paper's Figure 2
// (l control-transfer operations on the RoleCPU role).
func NewLPC(name string, l float64) (*Composite, error) { return model.NewLPC(name, l) }

// NewRPC builds the remote-procedure-call connector of Figure 2
// (c marshal operations and m transmitted bytes per size unit, over the
// RoleClientCPU / RoleServerCPU / RoleNet roles).
func NewRPC(name string, c, m float64) (*Composite, error) { return model.NewRPC(name, c, m) }

// SoftwareFailure is the internal-failure law of equation (14):
// 1 - (1-phi)^ops.
func SoftwareFailure(phi, ops Expr) Expr { return model.SoftwareFailure(phi, ops) }

// CombineState combines per-request failure probabilities into a state
// failure probability under the given models (equations 4-13 and the
// k-of-n extension).
func CombineState(completion Completion, dependency Dependency, k int, reqs []RequestFailure) (float64, error) {
	return model.CombineState(completion, dependency, k, reqs)
}

// Assemblies.
type (
	// Assembly is a set of services plus role bindings; it is the
	// resolver the evaluator runs against.
	Assembly = assembly.Assembly
	// Binding connects a (caller, role) pair to a provider and connector.
	Binding = assembly.Binding
	// PaperParams holds the constants of the paper's section 4 example.
	PaperParams = assembly.PaperParams
)

// NewAssembly returns an empty assembly.
func NewAssembly(name string) *Assembly { return assembly.New(name) }

// DefaultPaperParams returns the documented constants used to reproduce
// Figure 6 (see DESIGN.md section 5).
func DefaultPaperParams() PaperParams { return assembly.DefaultPaperParams() }

// LocalAssembly builds the paper's local assembly (Figure 3).
func LocalAssembly(p PaperParams) (*Assembly, error) { return assembly.LocalAssembly(p) }

// RemoteAssembly builds the paper's remote assembly (Figure 4).
func RemoteAssembly(p PaperParams) (*Assembly, error) { return assembly.RemoteAssembly(p) }

// Evaluation engine.
type (
	// Evaluator computes failure probabilities over an assembly.
	Evaluator = core.Evaluator
	// Options configures an Evaluator.
	Options = core.Options
	// CyclePolicy selects how recursive assemblies are treated.
	CyclePolicy = core.CyclePolicy
	// EvalReport is the per-state, per-request breakdown of an evaluation.
	EvalReport = core.Report
	// CompiledAssembly is an immutable compiled evaluator: bindings
	// resolved, expressions compiled to slot programs, chain skeletons
	// pre-built. Safe for concurrent use from any number of goroutines.
	CompiledAssembly = core.CompiledAssembly
)

// Cycle policies.
const (
	// CycleError rejects recursive assemblies (the paper's procedure).
	CycleError = core.CycleError
	// CycleFixedPoint solves them by fixed-point iteration (the paper's
	// proposed extension).
	CycleFixedPoint = core.CycleFixedPoint
)

// NewEvaluator returns an evaluator over the resolver (usually an
// *Assembly): the paper's recursive Pfail_Alg, interpreted on every call
// and memoized per (service, parameters). It never compiles; use Compile
// for the compiled engine and concurrent evaluation.
func NewEvaluator(resolver model.Resolver, opts Options) *Evaluator {
	return core.New(resolver, opts)
}

// Compile resolves, validates, and compiles every service of the assembly
// up front, returning an immutable CompiledAssembly whose Pfail /
// PfailBatch methods are safe for concurrent use:
//
//	ca, err := socrel.Compile(asm, socrel.Options{})
//	pfs, err := ca.PfailBatch("search", [][]float64{{1, 4096, 1}, {1, 8192, 1}})
//
// Compile rejects recursive assemblies and the iterative Markov solver
// with core.ErrNotCompilable; use NewEvaluator for those.
func Compile(asm *Assembly, opts Options) (*CompiledAssembly, error) {
	return core.Compile(asm, opts, asm.ServiceNames()...)
}

// CompileServices compiles only the given root services (and everything
// they transitively request) against an arbitrary resolver.
func CompileServices(resolver model.Resolver, opts Options, roots ...string) (*CompiledAssembly, error) {
	return core.Compile(resolver, opts, roots...)
}

// Parametric compilation: the absorbing chain is solved once,
// symbolically, so every evaluation (Pfail, PfailBatch, sweeps,
// uncertainty sampling) is a pure closed-form expression evaluation, and
// exact partial derivatives come for free via Sensitivities.
type (
	// ParametricOptions bounds the symbolic solve (cyclic-SCC state
	// bound, expression node budget) and observes fallbacks.
	ParametricOptions = core.ParametricOptions
	// ParametricStats counts closed forms, fallbacks, and how many
	// points each path answered.
	ParametricStats = core.ParametricStats
)

// Parametric-compilation sentinels and defaults.
var (
	// ErrNoParametricForm marks roots served numerically because no
	// closed form was built (Sensitivities wraps the fallback reason).
	ErrNoParametricForm = core.ErrNoParametricForm
	// ErrNonDifferentiable marks closed forms whose exact gradient does
	// not exist (absolute values, floors, minima along the solved path).
	ErrNonDifferentiable = core.ErrNonDifferentiable
)

// DefaultStateBound is the largest cyclic strongly-connected component
// CompileParametric eliminates symbolically before falling back to the
// numeric kernel for that root.
const DefaultStateBound = core.DefaultStateBound

// CompileParametric is Compile plus a symbolic solve of each root's
// absorbing chain: the resulting CompiledAssembly answers Pfail and
// PfailBatch by evaluating one compiled closed-form program per point
// (falling back to the numeric kernel transparently), exposes the form
// via ClosedForm, and exact partials via Sensitivities:
//
//	ca, err := socrel.CompileParametric(asm, socrel.Options{}, socrel.ParametricOptions{})
//	form, ok := ca.ClosedForm("search")     // printable Pfail(elem, list, res)
//	grads, err := ca.Sensitivities("search", 1, 4096, 1)
func CompileParametric(asm *Assembly, opts Options, popts ParametricOptions) (*CompiledAssembly, error) {
	return core.CompileParametric(asm, opts, popts, asm.ServiceNames()...)
}

// CompileParametricServices is CompileParametric for explicit roots
// against an arbitrary resolver.
func CompileParametricServices(resolver model.Resolver, opts Options, popts ParametricOptions, roots ...string) (*CompiledAssembly, error) {
	return core.CompileParametric(resolver, opts, popts, roots...)
}

// Resilience & error taxonomy (DESIGN.md section 8). Every failure an
// evaluation entry point returns matches one of these sentinels (or a
// model-layer sentinel such as model.ErrInvalidService) via errors.Is.
var (
	// ErrCanceled marks evaluations stopped by context cancellation or
	// deadline expiry.
	ErrCanceled = core.ErrCanceled
	// ErrNonFinite marks NaN or infinite probabilities produced by a
	// failure law, attribute, or transition expression.
	ErrNonFinite = core.ErrNonFinite
	// ErrNoConvergence marks iterative solves that exhausted their sweep
	// budget; errors.As extracts the *linalg.NoConvergenceError detail.
	ErrNoConvergence = core.ErrNoConvergence
	// ErrUnresolvedBinding marks requests whose role could not be resolved
	// to a registered provider or connector.
	ErrUnresolvedBinding = core.ErrUnresolvedBinding
	// ErrDefectiveFlow marks structurally broken usage profiles (bad row
	// sums, transition probabilities outside [0,1], no path to absorption).
	ErrDefectiveFlow = core.ErrDefectiveFlow
	// ErrNotCompilable marks assemblies the compiled engine rejects
	// (recursion, iterative solver, dynamic resolvers).
	ErrNotCompilable = core.ErrNotCompilable
	// ErrPanic marks evaluations recovered from a panicking expression or
	// model; errors.As extracts the *PanicError with value and stack.
	ErrPanic = core.ErrPanic
)

type (
	// PanicError carries the recovered value and stack of a panic isolated
	// inside an evaluation; it matches ErrPanic via errors.Is.
	PanicError = core.PanicError
	// EvalError prefixes a failure with the service/state path from the
	// evaluation root down to the defect.
	EvalError = core.EvalError
)

// Monte Carlo validation.
type (
	// Simulator is the fault-injection simulator.
	Simulator = sim.Simulator
	// SimOptions configures a Simulator.
	SimOptions = sim.Options
	// Estimate is a simulated reliability estimate with its confidence
	// interval.
	Estimate = sim.Estimate
)

// NewSimulator returns a simulator over the resolver.
func NewSimulator(resolver model.Resolver, opts SimOptions) *Simulator {
	return sim.New(resolver, opts)
}

// Performance extension.
type (
	// PerfProfile computes expected execution times (Markov rewards).
	PerfProfile = perf.Profile
)

// NewPerfProfile returns an empty performance profile over the resolver.
func NewPerfProfile(resolver model.Resolver) *PerfProfile { return perf.New(resolver) }

// Registry and selection.
type (
	// Registry is the publish/discover service registry.
	Registry = registry.Registry
	// Candidate is one provider/connector option for a role.
	Candidate = registry.Candidate
	// Selection is the result of reliability-driven provider selection.
	Selection = registry.Selection
)

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return registry.New() }

// SelectBinding picks the candidate binding maximizing the predicted
// reliability of the target invocation.
func SelectBinding(asm *Assembly, caller, role string, candidates []Candidate, opts Options, target string, params ...float64) (Selection, error) {
	return registry.SelectBinding(asm, caller, role, candidates, opts, target, params...)
}

// SelectBindingCtx is SelectBinding honoring cancellation and isolating
// candidate panics.
func SelectBindingCtx(ctx context.Context, asm *Assembly, caller, role string, candidates []Candidate, opts Options, target string, params ...float64) (Selection, error) {
	return registry.SelectBindingCtx(ctx, asm, caller, role, candidates, opts, target, params...)
}

// ADL.
type (
	// Document is a parsed ADL document (services + assemblies).
	Document = adl.Document
)

// ParseADL parses the textual analytic-interface DSL.
func ParseADL(source string) (*Document, error) { return adl.ParseDSL(source) }

// MarshalADLJSON serializes a document to JSON.
func MarshalADLJSON(d *Document) ([]byte, error) { return adl.MarshalJSON(d) }

// UnmarshalADLJSON parses a JSON document.
func UnmarshalADLJSON(data []byte) (*Document, error) { return adl.UnmarshalJSON(data) }

// Usage-profile estimation.

// EstimateChainFromTraces computes the maximum-likelihood usage-profile
// chain from fully observed state traces.
func EstimateChainFromTraces(traces [][]string) (*MarkovChain, error) {
	return hmm.EstimateChain(traces)
}

// MarkovChain is a discrete-time Markov chain (re-exported for trace
// estimation results and custom flows).
type MarkovChain = markovChain

// Parameter studies.
type (
	// Series is one named curve of a parameter sweep.
	Series = sensitivity.Series
	// SweepPoint is one sample of a series.
	SweepPoint = sensitivity.Point
)

// Sweep evaluates f over xs into a named series.
func Sweep(name string, xs []float64, f func(x float64) (float64, error)) (Series, error) {
	return sensitivity.Sweep(name, xs, f)
}

// SweepParallel evaluates f over xs (points in xs order in the result)
// with per-point panic isolation. For parallel throughput, sweep a
// compiled service through SweepBatch + CompiledBatch instead: the batch
// kernel owns the worker pool.
func SweepParallel(name string, xs []float64, f func(x float64) (float64, error)) (Series, error) {
	return sensitivity.SweepParallel(name, xs, f)
}

// SweepParallelCtx is SweepParallel honoring cancellation (the sweep stops
// at the next point boundary with ErrCanceled) and isolating panics (a
// panicking point fails with ErrPanic without killing its siblings).
func SweepParallelCtx(ctx context.Context, name string, xs []float64, f func(x float64) (float64, error)) (Series, error) {
	return sensitivity.SweepParallelCtx(ctx, name, xs, f)
}

// BatchFunc evaluates a whole sweep grid in one call; CompiledBatch builds
// one from a compiled service so sweeps run through the batch kernel.
type BatchFunc = sensitivity.BatchFunc

// SweepBatch evaluates the whole grid through one BatchFunc call.
func SweepBatch(name string, xs []float64, bf BatchFunc) (Series, error) {
	return sensitivity.SweepBatch(name, xs, bf)
}

// SweepBatchCtx is SweepBatch honoring cancellation.
func SweepBatchCtx(ctx context.Context, name string, xs []float64, bf BatchFunc) (Series, error) {
	return sensitivity.SweepBatchCtx(ctx, name, xs, bf)
}

// CompiledBatch adapts a compiled service to a BatchFunc sweeping Pfail:
// frame maps the swept scalar to the service's actual parameters. The
// grid is evaluated by one PfailBatch call (closed-form chunks for a
// parametric compile, the numeric kernel otherwise).
func CompiledBatch(ca *CompiledAssembly, service string, frame func(x float64) []float64) BatchFunc {
	return sensitivity.CompiledBatch(ca, service, frame)
}

// CompiledReliabilityBatch is CompiledBatch sweeping reliability (1-Pfail).
func CompiledReliabilityBatch(ca *CompiledAssembly, service string, frame func(x float64) []float64) BatchFunc {
	return sensitivity.CompiledReliabilityBatch(ca, service, frame)
}

// Crossover locates where f - g changes sign within [lo, hi] by bisection.
func Crossover(f, g func(x float64) (float64, error), lo, hi, tol float64) (float64, error) {
	return sensitivity.Crossover(f, g, lo, hi, tol)
}

// PowersOfTwo returns 2^loExp .. 2^hiExp inclusive.
func PowersOfTwo(loExp, hiExp int) ([]float64, error) {
	return sensitivity.PowersOfTwo(loExp, hiExp)
}
