package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"socrel/internal/estimate"
	"socrel/internal/faultinject"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
)

// FleetConfig assembles N identically configured replicas over one
// in-process transport.
type FleetConfig struct {
	// Replicas is the initial fleet size (default 3).
	Replicas int
	// Node is the per-replica template; ID and Seeds are filled in per
	// replica (replica-0 .. replica-N-1, each seeded with the full
	// initial roster).
	Node NodeConfig
	// Server is the per-replica serving-tier template; its Clock is
	// forced to the fleet clock.
	Server server.Config
	// NewEvaluator builds each replica's evaluator. Required. It may
	// return a shared evaluator if that evaluator is concurrency-safe.
	NewEvaluator func(id string) server.Evaluator
	// NewEstimator builds each replica's failure-parameter estimator;
	// nil means a default estimator on the replica's clock. The fleet
	// gives it to the node (so its snapshots ride gossip and peer
	// snapshots merge in) and chains the replica server's OnOutcome hook
	// to feed it: every evaluation outcome is observed under bucket
	// (provider = target service, context = request scope). Richer feeds
	// — supervisor outcome events carrying real provider identities —
	// call Node.ObserveEstimate directly.
	NewEstimator func(id string) *estimate.Estimator
	// Network, when set, carries all inter-replica traffic so tests can
	// partition, drop, duplicate, and reorder it.
	Network *faultinject.Network
	// NewClock, when set, supplies each replica's clock — the seam the
	// deterministic simulation harness uses to give every node its own
	// skewed view of one shared fake timeline. A nil result falls back
	// to the template Node.Clock. The fleet's own background gossip loop
	// stays on the template clock.
	NewClock func(id string) socruntime.Clock
}

// Fleet is a set of replicas plus the glue a caller needs: an entry
// point that spreads requests over live replicas, a deterministic
// gossip driver for tests, a background gossip loop for production, and
// chaos controls (Kill, AddReplica).
type Fleet struct {
	cfg       FleetConfig
	clock     socruntime.Clock
	transport *LocalTransport
	next      atomic.Uint64

	mu       sync.Mutex
	nodes    []*Node // creation order; killed replicas stay, marked stopped
	live     []*Node // nodes minus killed, creation order; replaced, never mutated
	byID     map[string]*Node
	killed   map[string]bool
	restarts int // lifetime Restart count, offsets restarted-node seeds

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
	started  bool
}

// NewFleet builds and registers the initial replicas. No gossip runs
// until Start (background, real time) or GossipRound (explicit, tests).
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.NewEvaluator == nil {
		return nil, errors.New("cluster: FleetConfig.NewEvaluator required")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	cfg.Node = cfg.Node.withDefaults()
	cfg.Server.Clock = cfg.Node.Clock

	f := &Fleet{
		cfg:       cfg,
		clock:     cfg.Node.Clock,
		transport: NewLocalTransport(cfg.Network),
		byID:      make(map[string]*Node),
		killed:    make(map[string]bool),
		stopCh:    make(chan struct{}),
	}
	roster := make([]string, cfg.Replicas)
	for i := range roster {
		roster[i] = fmt.Sprintf("replica-%d", i)
	}
	for i, id := range roster {
		if _, err := f.addNodeLocked(id, roster, int64(i)); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// buildNode constructs and transport-registers one replica without
// recording it in the fleet's bookkeeping (addNodeLocked and Restart
// record it differently).
func (f *Fleet) buildNode(id string, seeds []string, seedOffset int64, genBase uint64) (*Node, error) {
	ncfg := f.cfg.Node
	ncfg.ID = id
	ncfg.Seeds = seeds
	ncfg.Seed = f.cfg.Node.Seed + seedOffset
	ncfg.GenBase = genBase
	scfg := f.cfg.Server
	if f.cfg.NewClock != nil {
		if c := f.cfg.NewClock(id); c != nil {
			ncfg.Clock = c
			scfg.Clock = c
		}
	}
	var est *estimate.Estimator
	if f.cfg.NewEstimator != nil {
		est = f.cfg.NewEstimator(id)
	} else {
		var err error
		if est, err = estimate.New(estimate.Config{Clock: ncfg.Clock}); err != nil {
			return nil, err
		}
	}
	// Chain rather than replace: the caller's hook still fires, and the
	// estimator sees every completed evaluation. Latency quantization
	// gives per-load buckets, so a provider that only degrades when slow
	// is estimated apart from its healthy traffic.
	lq := estimate.DefaultLatencyQuantizer()
	inner := scfg.OnOutcome
	scfg.OnOutcome = func(o server.Outcome) {
		est.Observe(estimate.Outcome{
			Provider: o.Service,
			Context:  o.Scope,
			Load:     lq.Bucket(o.Latency),
			Failed:   !o.Success,
			Latency:  o.Latency,
			At:       o.At,
		})
		if inner != nil {
			inner(o)
		}
	}
	srv := server.New(f.cfg.NewEvaluator(id), scfg)
	n, err := NewNode(ncfg, srv, est, f.transport)
	if err != nil {
		return nil, err
	}
	f.transport.Register(n)
	return n, nil
}

// addNodeLocked builds, registers, and records one replica. The fleet
// lock need not be held during construction at boot, but AddReplica
// holds it; the name documents the latter caller.
func (f *Fleet) addNodeLocked(id string, seeds []string, seedOffset int64) (*Node, error) {
	n, err := f.buildNode(id, seeds, seedOffset, 0)
	if err != nil {
		return nil, err
	}
	f.nodes = append(f.nodes, n)
	f.byID[id] = n
	f.refreshLiveLocked()
	return n, nil
}

// Transport exposes the fleet's transport (tests register extra nodes
// or point standalone nodes at it).
func (f *Fleet) Transport() *LocalTransport { return f.transport }

// Node returns a replica by ID (nil if unknown). Killed replicas are
// still returned so tests can inspect their final state.
func (f *Fleet) Node(id string) *Node {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.byID[id]
}

// Nodes returns all replicas in creation order, killed ones included.
func (f *Fleet) Nodes() []*Node {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*Node(nil), f.nodes...)
}

// Live returns the replicas not yet killed, in creation order.
func (f *Fleet) Live() []*Node {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*Node(nil), f.live...)
}

// refreshLiveLocked rebuilds the live roster after a membership change.
// It builds a new slice rather than editing the old one, so a reader
// holding the old roster never sees it change.
func (f *Fleet) refreshLiveLocked() {
	live := make([]*Node, 0, len(f.nodes))
	for _, n := range f.nodes {
		if !f.killed[n.ID()] {
			live = append(live, n)
		}
	}
	f.live = live
}

// Serve routes one request into the fleet through a round-robin choice
// of live entry replica — the entry replica then owns the at-most-one-
// hop routing decision. With no live replicas the answer is Unavailable.
func (f *Fleet) Serve(ctx context.Context, req server.Request) socruntime.Answer {
	f.mu.Lock()
	live := f.live
	f.mu.Unlock()
	if len(live) == 0 {
		return unavailableAnswer("fleet")
	}
	entry := live[f.next.Add(1)%uint64(len(live))]
	return entry.Serve(ctx, req)
}

// GossipRound runs one synchronous round on every live replica in
// creation order, then flushes any injected delays so tests advance the
// protocol deterministically round by round.
func (f *Fleet) GossipRound() {
	for _, n := range f.Live() {
		n.GossipRound()
	}
	if f.cfg.Network != nil {
		f.cfg.Network.Flush()
	}
}

// Kill abruptly stops a replica: it stops serving and gossiping and is
// deregistered from the transport, so peers see forwards fail and
// heartbeats cease — exactly a process kill, minus the process.
func (f *Fleet) Kill(id string) bool {
	f.mu.Lock()
	n := f.byID[id]
	if n == nil || f.killed[id] {
		f.mu.Unlock()
		return false
	}
	f.killed[id] = true
	f.refreshLiveLocked()
	f.mu.Unlock()
	n.Stop()
	f.transport.Deregister(id)
	return true
}

// Restart brings a killed replica back under its original ID: a fresh
// node (empty stores, reset estimator, new incarnation) seeded with the
// current live roster, occupying the dead replica's slot. Peers re-admit
// it on its first gossip round and mark it Alive again. Restarting a
// live or unknown replica is an error.
func (f *Fleet) Restart(id string) (*Node, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	old := f.byID[id]
	if old == nil {
		return nil, fmt.Errorf("cluster: Restart(%q): unknown replica", id)
	}
	if !f.killed[id] {
		return nil, fmt.Errorf("cluster: Restart(%q): replica is live", id)
	}
	seeds := make([]string, 0, len(f.nodes)+1)
	for _, n := range f.live {
		seeds = append(seeds, n.ID())
	}
	seeds = append(seeds, id) // rejoin its own ring slot immediately
	f.restarts++
	// Carry the predecessor's evidence generation forward: the version
	// vector is per identity, not per incarnation, and a counter that
	// restarted from zero would have this node's rumors dominance-skipped
	// by every peer that remembers the old one.
	n, err := f.buildNode(id, seeds, int64(len(f.nodes)+f.restarts), old.EvidenceGen())
	if err != nil {
		f.restarts--
		return nil, err
	}
	for i, existing := range f.nodes {
		if existing == old {
			f.nodes[i] = n
			break
		}
	}
	f.byID[id] = n
	delete(f.killed, id)
	f.refreshLiveLocked()
	return n, nil
}

// AddReplica joins one new replica seeded with the current live roster.
// Peers admit it on its first gossip round.
func (f *Fleet) AddReplica() (*Node, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	id := fmt.Sprintf("replica-%d", len(f.nodes))
	seeds := make([]string, 0, len(f.nodes))
	for _, n := range f.live {
		seeds = append(seeds, n.ID())
	}
	return f.addNodeLocked(id, seeds, int64(len(f.nodes)))
}

// Quarantined reports whether every live replica holds the provider
// drifting up (Node.Quarantined) — the fleet-wide convergence predicate
// the chaos soak asserts after a heal.
func (f *Fleet) Quarantined(provider string) bool {
	live := f.Live()
	if len(live) == 0 {
		return false
	}
	for _, n := range live {
		if !n.Quarantined(provider) {
			return false
		}
	}
	return true
}

// Start launches the background gossip loop on the fleet clock: one
// round per GossipInterval until Stop. Tests that want determinism call
// GossipRound directly and never Start.
func (f *Fleet) Start() {
	f.mu.Lock()
	if f.started {
		f.mu.Unlock()
		return
	}
	f.started = true
	f.mu.Unlock()
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			select {
			case <-f.stopCh:
				return
			case <-f.clock.After(f.cfg.Node.GossipInterval):
				f.GossipRound()
			}
		}
	}()
}

// Stop halts the background loop (if running) and stops every live
// replica. It does not drain; use Drain first for a graceful shutdown.
func (f *Fleet) Stop() {
	f.stopOnce.Do(func() { close(f.stopCh) })
	f.wg.Wait()
	for _, n := range f.Live() {
		n.Stop()
	}
}

// Drain gracefully drains every live replica's serving tier in
// parallel, returning the first error (all drains run regardless).
func (f *Fleet) Drain(ctx context.Context, timeout time.Duration) error {
	live := f.Live()
	errs := make(chan error, len(live))
	var wg sync.WaitGroup
	for _, n := range live {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			_, err := n.Server().Drain(ctx, timeout)
			errs <- err
		}(n)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
