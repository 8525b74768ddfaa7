package socrel

// Run-time monitoring and the self-healing runtime: a monitor checks
// observed outcomes against a prediction, and a supervisor rebinds away
// from a provider that runs below it (DESIGN.md section 9).

import (
	"context"

	"socrel/internal/monitor"
	socruntime "socrel/internal/runtime"
)

// Monitoring.
type (
	// Monitor tracks observed invocation outcomes against a predicted
	// reliability (Wilson interval check + Wald SPRT).
	Monitor = monitor.Monitor
	// MonitorConfig parameterizes a Monitor.
	MonitorConfig = monitor.Config
)

// Monitoring verdicts.
const (
	// VerdictUndecided means the evidence is not yet conclusive.
	VerdictUndecided = monitor.Undecided
	// VerdictViolating means the service runs below its prediction.
	VerdictViolating = monitor.Violating
)

// NewMonitor returns a monitor for the given configuration.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) { return monitor.New(cfg) }

// Self-healing runtime.
type (
	// SupervisorConfig configures a supervisor.
	SupervisorConfig = socruntime.SupervisorConfig
	// RebindEvent records one supervised failover.
	RebindEvent = socruntime.RebindEvent
)

// NewSupervisor builds a supervisor for one (caller, role) binding inside
// asm, performs the initial reliability-driven selection among candidates,
// and starts watching the winner. The supervisor streams outcomes into
// an SPRT per provider, quarantines and rebinds away from a provider that
// runs below its prediction, and answers Stale or Unavailable instead of
// lying when no exact answer is available.
func NewSupervisor(ctx context.Context, cfg SupervisorConfig, asm *Assembly, caller, role string, candidates []Candidate, opts Options, target string, params ...float64) (*socruntime.Supervisor, error) {
	return socruntime.NewSupervisor(ctx, cfg, asm, caller, role, candidates, opts, target, params...)
}
