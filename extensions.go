package socrel

// Re-exports of the extension subsystems: fault-tolerance connectors,
// the error-propagation analysis (releasing the paper's fail-stop
// assumption), runtime reliability monitoring, the self-healing runtime
// (retries, circuit breakers, supervised rebinding), and Graphviz export.

import (
	"context"
	"time"

	"socrel/internal/assembly"
	"socrel/internal/cluster"
	"socrel/internal/core"
	"socrel/internal/dot"
	"socrel/internal/faultinject"
	"socrel/internal/model"
	"socrel/internal/monitor"
	"socrel/internal/propagation"
	"socrel/internal/registry"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
	"socrel/internal/sim"
)

// Fault-tolerance connector roles.
const (
	// RoleTransport is the underlying-transport role of the
	// fault-tolerance connectors.
	RoleTransport = model.RoleTransport
	// RoleBrokerCPU is the queue connector's broker processing role.
	RoleBrokerCPU = model.RoleBrokerCPU
	// RoleNet1 is the queue connector's client-side network role.
	RoleNet1 = model.RoleNet1
	// RoleNet2 is the queue connector's server-side network role.
	RoleNet2 = model.RoleNet2
)

// NewRetry builds a connector making up to attempts independent delivery
// attempts over the RoleTransport role (1-of-n redundancy).
func NewRetry(name string, attempts int) (*Composite, error) {
	return model.NewRetry(name, attempts)
}

// NewKOfNTransport builds a redundant transport connector: n channels, at
// least k must deliver; dependency Sharing models channels multiplexed
// over one shared resource.
func NewKOfNTransport(name string, n, k int, dep Dependency) (*Composite, error) {
	return model.NewKOfNTransport(name, n, k, dep)
}

// NewQueue builds a store-and-forward (message queue) connector:
// client -> broker -> server and back, with marshal cost c op/unit and
// transmission cost m B/unit per hop.
func NewQueue(name string, c, m float64) (*Composite, error) {
	return model.NewQueue(name, c, m)
}

// Error propagation (releasing the fail-stop assumption).
type (
	// PropagationBehavior is a flow state's error behavior: visible
	// failure, error introduction, detection, masking.
	PropagationBehavior = propagation.Behavior
	// PropagationResult is the (correct, erroneous, failed) outcome split.
	PropagationResult = propagation.Result
	// PropagationAnalysis is an error-propagation model over a flow.
	PropagationAnalysis = propagation.Analysis
)

// NewPropagationAnalysis creates an analysis over a bare flow chain
// (states between StartState and EndState).
func NewPropagationAnalysis(flow *MarkovChain) *PropagationAnalysis {
	return propagation.New(flow)
}

// PropagationFromComposite derives an analysis for a composite at a
// parameter point: visible failure probabilities from the engine, error
// behaviors from errBehaviors (absent states are pure fail-stop).
func PropagationFromComposite(resolver model.Resolver, comp *Composite, params []float64, opts Options, errBehaviors map[string]PropagationBehavior) (*PropagationAnalysis, error) {
	return propagation.FromComposite(resolver, comp, params, opts, errBehaviors)
}

// Runtime monitoring.
type (
	// Monitor tracks observed invocation outcomes against a predicted
	// reliability (Wilson interval check + Wald SPRT).
	Monitor = monitor.Monitor
	// MonitorConfig parameterizes a Monitor.
	MonitorConfig = monitor.Config
	// Verdict is a monitoring check outcome.
	Verdict = monitor.Verdict
)

// Monitoring verdicts.
const (
	// VerdictUndecided means the evidence is not yet conclusive.
	VerdictUndecided = monitor.Undecided
	// VerdictMeeting means the service meets its predicted reliability.
	VerdictMeeting = monitor.Meeting
	// VerdictViolating means the service runs below its prediction.
	VerdictViolating = monitor.Violating
)

// NewMonitor returns a monitor for the given configuration.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) { return monitor.New(cfg) }

// MonitorSnapshot is a serializable (JSON-tagged) monitor checkpoint; see
// Monitor.Snapshot and RestoreMonitor.
type MonitorSnapshot = monitor.Snapshot

// RestoreMonitor rebuilds a monitor from a snapshot so observation history
// and any SPRT decision survive a process restart.
func RestoreMonitor(s MonitorSnapshot) (*Monitor, error) { return monitor.Restore(s) }

// Self-healing runtime (DESIGN.md section 9).
type (
	// Clock abstracts time for the runtime layer; RealClock is the
	// production implementation, FakeClock the deterministic test one.
	Clock = socruntime.Clock
	// RealClock is the wall-clock Clock.
	RealClock = socruntime.RealClock
	// FakeClock is a virtual clock for deterministic runtime tests.
	FakeClock = socruntime.FakeClock
	// RetryPolicy configures a RetryResolver (attempts, backoff, budget,
	// per-attempt deadline, retryability classification).
	RetryPolicy = socruntime.RetryPolicy
	// RetryResolver decorates a Resolver with budgeted, jittered retries.
	RetryResolver = socruntime.RetryResolver
	// BreakerConfig configures a circuit Breaker.
	BreakerConfig = socruntime.BreakerConfig
	// Breaker is a closed/open/half-open circuit breaker.
	Breaker = socruntime.Breaker
	// BreakerState is a Breaker's lifecycle state.
	BreakerState = socruntime.BreakerState
	// HealthConfig configures a HealthTracker.
	HealthConfig = socruntime.HealthConfig
	// HealthTracker tracks per-provider health: a circuit breaker fed by a
	// SPRT monitor and by typed evaluation errors.
	HealthTracker = socruntime.HealthTracker
	// SupervisorConfig configures a Supervisor.
	SupervisorConfig = socruntime.SupervisorConfig
	// Supervisor owns one role binding and heals it: it streams outcomes
	// into the health layer, rebinds away from quarantined providers, and
	// degrades answers instead of lying when no exact answer is available.
	Supervisor = socruntime.Supervisor
	// RebindEvent records one supervised failover.
	RebindEvent = socruntime.RebindEvent
	// Answer is a reliability answer tagged with its degradation kind.
	Answer = socruntime.Answer
	// AnswerKind labels an Answer: exact, stale, bounded, or unavailable.
	AnswerKind = socruntime.AnswerKind
)

// Breaker states.
const (
	// BreakerClosed means traffic flows and failures are counted.
	BreakerClosed = socruntime.Closed
	// BreakerOpen means the provider is quarantined.
	BreakerOpen = socruntime.Open
	// BreakerHalfOpen means a probe budget decides recovery.
	BreakerHalfOpen = socruntime.HalfOpen
)

// Degraded-answer kinds.
const (
	// AnswerExact is a fresh evaluation under the current binding.
	AnswerExact = socruntime.Exact
	// AnswerStale is a value from the last known good model, dated by its
	// last exact answer (AsOf, Age).
	AnswerStale = socruntime.Stale
	// AnswerBounded is the last known good value widened by an iterative
	// solver's residual (uncertified; [0, 1] without a last good value).
	AnswerBounded = socruntime.Bounded
	// AnswerUnavailable means no answer can be given; Err says why.
	AnswerUnavailable = socruntime.Unavailable
)

// Self-healing runtime errors.
var (
	// ErrRetriesExhausted wraps the last attempt error after MaxAttempts.
	ErrRetriesExhausted = socruntime.ErrRetriesExhausted
	// ErrRetryBudgetExhausted marks calls failed by a drained retry budget.
	ErrRetryBudgetExhausted = socruntime.ErrRetryBudgetExhausted
	// ErrAttemptTimeout marks a single attempt exceeding its deadline.
	ErrAttemptTimeout = socruntime.ErrAttemptTimeout
	// ErrQuarantined marks calls rejected by an open circuit breaker.
	ErrQuarantined = socruntime.ErrQuarantined
	// ErrProviderDegraded is the breaker trip reason on an SPRT violation.
	ErrProviderDegraded = socruntime.ErrProviderDegraded
	// ErrAllQuarantined means every candidate provider is quarantined.
	ErrAllQuarantined = socruntime.ErrAllQuarantined
)

// NewRetryResolver returns a retrying decorator over base.
func NewRetryResolver(base model.Resolver, policy RetryPolicy) *RetryResolver {
	return socruntime.NewRetryResolver(base, policy)
}

// DefaultRetryable is the taxonomy-driven retry classification (transient
// faults retry; cancellations, semantic signals, and deterministic defects
// fail fast).
func DefaultRetryable(err error) bool { return socruntime.DefaultRetryable(err) }

// NewBreaker returns a closed breaker for the configuration.
func NewBreaker(cfg BreakerConfig) *Breaker { return socruntime.NewBreaker(cfg) }

// NewHealthTracker returns an empty tracker for the configuration.
func NewHealthTracker(cfg HealthConfig) *HealthTracker {
	return socruntime.NewHealthTracker(cfg)
}

// NewFakeClock returns a virtual clock starting at start.
func NewFakeClock(start time.Time) *FakeClock { return socruntime.NewFakeClock(start) }

// NewSupervisor builds a supervisor for one (caller, role) binding inside
// asm, performs the initial reliability-driven selection among candidates,
// and starts watching the winner.
func NewSupervisor(ctx context.Context, cfg SupervisorConfig, asm *Assembly, caller, role string, candidates []Candidate, opts Options, target string, params ...float64) (*Supervisor, error) {
	return socruntime.NewSupervisor(ctx, cfg, asm, caller, role, candidates, opts, target, params...)
}

// SelectHealthyBinding is SelectBindingCtx restricted to candidates the
// tracker considers healthy (breaker not open).
func SelectHealthyBinding(ctx context.Context, tracker *HealthTracker, asm *assembly.Assembly, caller, role string, candidates []registry.Candidate, opts core.Options, target string, params ...float64) (registry.Selection, error) {
	return socruntime.SelectHealthyBinding(ctx, tracker, asm, caller, role, candidates, opts, target, params...)
}

// Graphviz export.

// FlowDOT renders a composite service's flow as Graphviz DOT (the paper's
// Figure 1/2 style).
func FlowDOT(c *Composite) string { return dot.Flow(c) }

// FlowWithFailuresDOT renders the flow augmented with its computed failure
// structure (Figure 5 style).
func FlowWithFailuresDOT(resolver model.Resolver, c *Composite, params []float64, opts core.Options) (string, error) {
	return dot.FlowWithFailures(resolver, c, params, opts)
}

// AssemblyDOT renders an assembly diagram (Figure 3/4 style).
func AssemblyDOT(a *Assembly) string { return dot.Assembly(a) }

// TimedEstimate is a simulated response-time distribution from
// Simulator.EstimateTime (percentiles of successful runs).
type TimedEstimate = sim.TimedEstimate

// Degraded answers (the graceful-degradation ladder's raw material).

// LastGood is a previously computed exact evaluation: the raw material of
// a Supervisor's stale answers. The Server keeps none; it answers Stale by
// evaluating a scope's closed form at the requested point.
type LastGood = socruntime.LastGood

// Degrade turns an evaluation failure into the best non-exact Answer the
// ladder can still give: bounded for a non-converged solve, stale when a
// last-known-good value exists, unavailable otherwise.
func Degrade(cause error, last *LastGood, now time.Time) Answer {
	return socruntime.Degrade(cause, last, now)
}

// Overload-resilient serving layer (cmd/relserve is the HTTP front end).
type (
	// Server is an admission-controlled prediction front end: a bounded
	// deadline-aware queue, an AIMD concurrency limiter, priority-class
	// load shedding, and the degradation ladder.
	Server = server.Server
	// ServerConfig parameterizes a Server.
	ServerConfig = server.Config
	// LimiterConfig parameterizes the AIMD concurrency limiter.
	LimiterConfig = server.LimiterConfig
	// ClassConfig parameterizes one priority class.
	ClassConfig = server.ClassConfig
	// ServerRequest is one prediction request.
	ServerRequest = server.Request
	// ServerBatchRequest is one batch prediction request.
	ServerBatchRequest = server.BatchRequest
	// ServerStats is a snapshot of the server's counters and gauges.
	ServerStats = server.Stats
	// ServerPriority is a request's priority class.
	ServerPriority = server.Priority
	// ServerSaturation is the server's load state, derived from queue fill.
	ServerSaturation = server.Saturation
	// ServerEvaluator is the evaluation backend a Server fronts.
	ServerEvaluator = server.Evaluator
)

// Priority classes, most to least important.
const (
	// PriorityInteractive is shed last.
	PriorityInteractive = server.Interactive
	// PriorityBatch is shed at severe saturation.
	PriorityBatch = server.Batch
	// PriorityBestEffort is shed first.
	PriorityBestEffort = server.BestEffort
)

// Serving-layer shed reasons.
var (
	// ErrOverloaded is the umbrella sentinel every shed answer wraps.
	ErrOverloaded = server.ErrOverloaded
	// ErrQueueFull means the admission queue was at capacity.
	ErrQueueFull = server.ErrQueueFull
	// ErrClassShed means the priority class is shed at current saturation.
	ErrClassShed = server.ErrClassShed
	// ErrDeadlineBudget means the remaining deadline could not cover the
	// estimated queue wait plus service time at admission.
	ErrDeadlineBudget = server.ErrDeadlineBudget
	// ErrExpiredInQueue means the deadline budget expired while queued.
	ErrExpiredInQueue = server.ErrExpiredInQueue
)

// NewServer builds an admission-controlled serving front end over eval
// (use a compiled assembly; it is safe for the server's concurrency).
func NewServer(eval ServerEvaluator, cfg ServerConfig) *Server {
	return server.New(eval, cfg)
}

// Distributed serving tier (cmd/relfleet is the HTTP front end): a
// replicated fleet sharing one logical registry view via consistent-hash
// routing and estimator-checkpoint gossip (DESIGN.md §13).
type (
	// Fleet is a set of replicas with round-robin entry, deterministic
	// gossip driving, and chaos controls (Kill, AddReplica).
	Fleet = cluster.Fleet
	// FleetConfig parameterizes a Fleet.
	FleetConfig = cluster.FleetConfig
	// ClusterNode is one replica: an embedded serving tier plus
	// failure-parameter estimator, joined to peers by routing and gossip.
	ClusterNode = cluster.Node
	// ClusterNodeConfig parameterizes one replica.
	ClusterNodeConfig = cluster.NodeConfig
	// ClusterNodeStats counts one replica's cluster-level traffic.
	ClusterNodeStats = cluster.NodeStats
	// ClusterRing is the consistent-hash ring mapping route keys to
	// replicas.
	ClusterRing = cluster.Ring
	// ClusterTransport moves rumors and forwarded requests between
	// replicas.
	ClusterTransport = cluster.Transport
	// ClusterMemberState is a replica's liveness as judged by one
	// observer.
	ClusterMemberState = cluster.MemberState
	// ClusterMemberInfo is the exported view of one membership entry.
	ClusterMemberInfo = cluster.MemberInfo
	// ClusterRumor is one anti-entropy gossip message.
	ClusterRumor = cluster.Rumor
	// NetworkFaults injects partitions, drops, duplicates, and
	// reordering between in-process replicas.
	NetworkFaults = faultinject.Network
	// NetworkFaultsConfig parameterizes NetworkFaults.
	NetworkFaultsConfig = faultinject.NetConfig
)

// Replica liveness states.
const (
	// MemberAlive means heartbeats are current.
	MemberAlive = cluster.Alive
	// MemberSuspect means heartbeats are late; ring keys are kept.
	MemberSuspect = cluster.Suspect
	// MemberDead means the replica is evicted from the ring.
	MemberDead = cluster.Dead
)

// Cluster and drain sentinels.
var (
	// ErrPeerUnreachable reports a forward that could not reach its
	// owner; the sender serves locally instead.
	ErrPeerUnreachable = cluster.ErrPeerUnreachable
	// ErrNodeStopped tags answers from a stopped replica.
	ErrNodeStopped = cluster.ErrStopped
	// ErrDraining is the shed reason while a server drains; it wraps
	// ErrOverloaded so HTTP layers keep mapping it to 503 + Retry-After.
	ErrDraining = server.ErrDraining
	// ErrDrainTimeout reports a drain deadline that expired with work
	// still in flight.
	ErrDrainTimeout = server.ErrDrainTimeout
)

// NewFleet builds and registers a replicated serving fleet.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return cluster.NewFleet(cfg) }

// NewClusterRing returns an empty consistent-hash ring with the given
// virtual-node count per replica (default 64).
func NewClusterRing(vnodes int) *ClusterRing { return cluster.NewRing(vnodes) }

// ClusterRouteKey renders (scope, service, parameter-region) into the
// ring key every replica computes identically.
func ClusterRouteKey(scope, service string, params []float64) string {
	return cluster.RouteKey(scope, service, params)
}

// NewNetworkFaults returns a fault-injecting in-process network.
func NewNetworkFaults(cfg NetworkFaultsConfig) *NetworkFaults {
	return faultinject.NewNetwork(cfg)
}
