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
// The package exports the paper's workflow and nothing else: build an
// assembly from the service model (internal/model, internal/assembly);
// evaluate Pfail, batches and sweeps (internal/core,
// internal/sensitivity); compile a closed form and its gradient; validate
// by Monte Carlo (internal/sim); select a binding (internal/registry);
// derive and store variants (internal/query, internal/store); estimate a
// usage profile from traces (internal/hmm); and monitor and heal a
// binding at run time (internal/monitor, internal/runtime; see
// extensions.go). Every other capability lives in its internal package,
// which the binaries under cmd/ import directly.
package socrel

import (
	"socrel/internal/adl"
	"socrel/internal/assembly"
	"socrel/internal/core"
	"socrel/internal/expr"
	"socrel/internal/hmm"
	"socrel/internal/markov"
	"socrel/internal/model"
	"socrel/internal/query"
	"socrel/internal/registry"
	"socrel/internal/sensitivity"
	"socrel/internal/sim"
	"socrel/internal/store"
)

// Expr is an immutable expression over formal parameters and attributes.
type Expr = expr.Expr

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
	// Request is one cascading service request inside a state.
	Request = model.Request
	// Attrs holds the published attributes of an analytic interface.
	Attrs = model.Attrs
)

// Completion and dependency models (section 3.2 of the paper).
const (
	// AND requires every request of a state to complete.
	AND = model.AND
	// OR requires at least one request to complete.
	OR = model.OR
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

// Roles of the RPC connector.
const (
	// RoleClientCPU is the client-side processing role.
	RoleClientCPU = model.RoleClientCPU
	// RoleServerCPU is the server-side processing role.
	RoleServerCPU = model.RoleServerCPU
	// RoleNet is the communication role.
	RoleNet = model.RoleNet
)

// NewCPU returns a processing resource: Pfail(N) = 1 - exp(-rate*N/speed)
// (equation 1 of the paper).
func NewCPU(name string, speed, failureRate float64) *model.Simple {
	return model.NewCPU(name, speed, failureRate)
}

// NewNetwork returns a communication resource:
// Pfail(B) = 1 - exp(-rate*B/bandwidth) (equation 2).
func NewNetwork(name string, bandwidth, failureRate float64) *model.Simple {
	return model.NewNetwork(name, bandwidth, failureRate)
}

// NewConstant returns a service with a constant failure probability.
func NewConstant(name string, pfail float64, formals ...string) *model.Simple {
	return model.NewConstant(name, pfail, formals...)
}

// NewComposite defines a composite service with an empty flow.
func NewComposite(name string, formals []string, attrs Attrs) *model.Composite {
	return model.NewComposite(name, formals, attrs)
}

// NewRPC builds the remote-procedure-call connector of Figure 2
// (c marshal operations and m transmitted bytes per size unit, over the
// RoleClientCPU / RoleServerCPU / RoleNet roles).
func NewRPC(name string, c, m float64) (*model.Composite, error) { return model.NewRPC(name, c, m) }

// SoftwareFailure is the internal-failure law of equation (14):
// 1 - (1-phi)^ops.
func SoftwareFailure(phi, ops Expr) Expr { return model.SoftwareFailure(phi, ops) }

// Assemblies.
type (
	// Assembly is a set of services plus role bindings; it is the
	// resolver the evaluator runs against.
	Assembly = assembly.Assembly
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

// Options configures the evaluation engine.
type Options = core.Options

// ErrCanceled marks evaluations stopped by context cancellation or
// deadline expiry (DESIGN.md section 8).
var ErrCanceled = core.ErrCanceled

// NewEvaluator returns an evaluator over the resolver (usually an
// *Assembly): the paper's recursive Pfail_Alg, interpreted on every call
// and memoized per (service, parameters). It never compiles; use Compile
// for the compiled engine and concurrent evaluation.
func NewEvaluator(resolver model.Resolver, opts Options) *core.Evaluator {
	return core.New(resolver, opts)
}

// Compile resolves, validates, and compiles every service of the assembly
// up front, returning an immutable compiled assembly whose Pfail /
// PfailBatch methods are safe for concurrent use:
//
//	ca, err := socrel.Compile(asm, socrel.Options{})
//	pfs, err := ca.PfailBatch("search", [][]float64{{1, 4096, 1}, {1, 8192, 1}})
//
// Compile rejects recursive assemblies and the iterative Markov solver
// with core.ErrNotCompilable; use NewEvaluator for those.
func Compile(asm *Assembly, opts Options) (*core.CompiledAssembly, error) {
	return core.Compile(asm, opts, asm.ServiceNames()...)
}

// ParametricOptions bounds the symbolic solve of CompileParametric
// (cyclic-SCC state bound, expression node budget) and observes
// fallbacks.
type ParametricOptions = core.ParametricOptions

// CompileParametric is Compile plus a symbolic solve of each root's
// absorbing chain: the result answers Pfail and PfailBatch by evaluating
// one compiled closed-form program per point (falling back to the numeric
// kernel transparently), exposes the form via ClosedForm, and exact
// partials via Sensitivities and Gradient:
//
//	ca, err := socrel.CompileParametric(asm, socrel.Options{}, socrel.ParametricOptions{})
//	form, ok := ca.ClosedForm("search")     // printable Pfail(elem, list, res)
//	grads, err := socrel.Gradient(ca, "search", 1, 4096, 1)
func CompileParametric(asm *Assembly, opts Options, popts ParametricOptions) (*core.CompiledAssembly, error) {
	return core.CompileParametric(asm, opts, popts, asm.ServiceNames()...)
}

// Gradient returns dPfail/dparam_i for every formal parameter of the
// service: exact compiled derivatives when the assembly was built with
// CompileParametric and admits a closed form, central finite differences
// through the numeric kernel otherwise.
func Gradient(ca *core.CompiledAssembly, service string, params ...float64) ([]float64, error) {
	return sensitivity.Gradient(ca, service, params...)
}

// Parameter sweeps.

// SweepBatch evaluates a whole sweep grid through one batch call.
func SweepBatch(name string, xs []float64, bf sensitivity.BatchFunc) (sensitivity.Series, error) {
	return sensitivity.SweepBatch(name, xs, bf)
}

// CompiledBatch adapts a compiled service to a batch function sweeping
// Pfail: frame maps the swept scalar to the service's actual parameters.
// The grid is evaluated by one PfailBatch call (closed-form chunks for a
// parametric compile, the numeric kernel otherwise).
func CompiledBatch(ca *core.CompiledAssembly, service string, frame func(x float64) []float64) sensitivity.BatchFunc {
	return sensitivity.CompiledBatch(ca, service, frame)
}

// Crossover locates where f - g changes sign within [lo, hi] by bisection.
func Crossover(f, g func(x float64) (float64, error), lo, hi, tol float64) (float64, error) {
	return sensitivity.Crossover(f, g, lo, hi, tol)
}

// PowersOfTwo returns 2^loExp .. 2^hiExp inclusive.
func PowersOfTwo(loExp, hiExp int) ([]float64, error) {
	return sensitivity.PowersOfTwo(loExp, hiExp)
}

// Monte Carlo validation.
type (
	// Simulator is the fault-injection simulator.
	Simulator = sim.Simulator
	// SimOptions configures a Simulator.
	SimOptions = sim.Options
)

// NewSimulator returns a simulator over the resolver.
func NewSimulator(resolver model.Resolver, opts SimOptions) *Simulator {
	return sim.New(resolver, opts)
}

// Candidate is one provider/connector option for a role.
type Candidate = registry.Candidate

// NewRegistry returns an empty publish/discover service registry.
func NewRegistry() *registry.Registry { return registry.New() }

// SelectBinding picks the candidate binding maximizing the predicted
// reliability of the target invocation.
func SelectBinding(asm *Assembly, caller, role string, candidates []Candidate, opts Options, target string, params ...float64) (registry.Selection, error) {
	return registry.SelectBinding(asm, caller, role, candidates, opts, target, params...)
}

// Usage-profile estimation.

// NewMarkovChain returns an empty discrete-time Markov chain.
func NewMarkovChain() *markov.Chain { return markov.New() }

// EstimateChainFromTraces computes the maximum-likelihood usage-profile
// chain from fully observed state traces.
func EstimateChainFromTraces(traces [][]string) (*markov.Chain, error) {
	return hmm.EstimateChain(traces)
}

// Variants and the model store.
//
//	q := socrel.NewQuery(doc)
//	vdoc, err := q.Variant("local").Named("swapped").
//	    Rebind(q.Service("search").Role("sort"), socrel.BindTo(q.Service("sort2"))).
//	    BuildDocument()
//	rec, err := st.Publish("acme", "search-swapped", vdoc, socrel.PublishOptions{})

// PublishOptions tunes one model-store Publish call (CAS via
// ExpectedLatest).
type PublishOptions = store.PublishOptions

// NewQuery wraps an ADL document in the typed query layer.
func NewQuery(doc *adl.Document) *query.Query { return query.From(doc) }

// BindTo binds a role directly to a provider (perfect connection);
// chain .Via(connector) to route through a connector.
func BindTo(provider query.ServiceRef) query.BindingSpec { return query.To(provider) }
