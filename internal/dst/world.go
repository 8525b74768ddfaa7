package dst

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"socrel/internal/assembly"
	"socrel/internal/cluster"
	"socrel/internal/core"
	"socrel/internal/estimate"
	"socrel/internal/faultinject"
	"socrel/internal/model"
	socruntime "socrel/internal/runtime"
	"socrel/internal/server"
)

// Options configures one simulated world.
type Options struct {
	// Seed seeds the network's fault draws (the generator and each
	// sampling event carry their own seeds).
	Seed int64
	// Replicas is the fleet size (default 3).
	Replicas int
	// Invariants are the checkers run after every step (default
	// DefaultInvariants()).
	Invariants []Invariant
	// Trace, when set, receives one JSONL TraceLine per applied event.
	Trace io.Writer
}

// ScopedAnswer pairs a served answer with the scope that asked.
type ScopedAnswer struct {
	Scope  string
	Answer socruntime.Answer
}

// scopeService maps request scopes to their evaluation targets; the two
// scopes have distinct exact values so cross-scope leaks are visible.
var scopeService = map[string]string{"A": "app", "B": "app2"}

// World is one deterministic simulation: a real fleet on a virtual
// timeline, plus the bookkeeping the invariants need (who is killed and
// since when, what the true drift rates are, what each estimator's
// generation was before the current step). Not safe for concurrent use;
// the whole point is that nothing in it runs concurrently.
type World struct {
	opts  Options
	base  *socruntime.FakeClock
	net   *faultinject.Network
	fleet *cluster.Fleet

	clocks map[string]*socruntime.SkewedClock
	evals  map[string]*dstEval

	exact map[string]float64 // scope → oracle exact value

	step        int
	partitioned bool
	quiet       int // consecutive advances since the last disruption
	killedAt    map[string]time.Time
	lastJoinAt  time.Time
	gens        map[string]uint64 // estimator gen before the current step
	lastEvent   Event

	// trueRate tracks, per bucket key, the drift rate whose samples fed
	// it; a second, different rate marks the bucket conflicted (its
	// window mixes two regimes and no single CI should cover it). Keys
	// are global, not per-node: gossip merges carry window samples, so
	// every estimator eventually holds the same bucket state.
	trueRate   map[string]float64
	conflicted map[string]bool

	answers []ScopedAnswer // answers served by the current step's burst
	trace   []TraceLine
}

// dstEval evaluates through the compiled assembly, failing on demand:
// an armed failure count makes the next N evaluations error, which is
// how the schedule pushes a replica down its degradation ladder.
type dstEval struct {
	resolver model.Resolver
	failNext int
}

func (e *dstEval) PfailCtx(ctx context.Context, service string, params ...float64) (float64, error) {
	if e.failNext > 0 {
		e.failNext--
		return 0, errors.New("dst: injected evaluator failure")
	}
	return core.New(e.resolver, core.Options{}).PfailCtx(ctx, service, params...)
}

// buildAssembly is the simulated workload: two composite apps bound to
// two constant providers with distinct failure probabilities.
func buildAssembly() (*assembly.Assembly, error) {
	asm := assembly.New("dst")
	asm.MustAddService(model.NewConstant("provider", 0.02))
	asm.MustAddService(model.NewConstant("provider2", 0.1))
	for _, name := range []string{"app", "app2"} {
		app := model.NewComposite(name, nil, nil)
		st, err := app.Flow().AddState("work", model.AND, model.NoSharing)
		if err != nil {
			return nil, err
		}
		st.AddRequest(model.Request{Role: "worker"})
		if err := app.Flow().AddTransitionP(model.StartState, "work", 1); err != nil {
			return nil, err
		}
		if err := app.Flow().AddTransitionP("work", model.EndState, 1); err != nil {
			return nil, err
		}
		asm.MustAddService(app)
	}
	asm.AddBinding("app", "worker", "provider", "")
	asm.AddBinding("app2", "worker", "provider2", "")
	return asm, nil
}

// NewWorld builds the fleet on a fresh virtual timeline and serves every
// replica one exact answer per scope, recording the exact oracle values
// the invariants check against.
func NewWorld(opts Options) (*World, error) {
	if opts.Replicas <= 0 {
		opts.Replicas = 3
	}
	if opts.Invariants == nil {
		opts.Invariants = DefaultInvariants()
	}
	asm, err := buildAssembly()
	if err != nil {
		return nil, err
	}
	w := &World{
		opts:       opts,
		base:       socruntime.NewFakeClock(time.Unix(0, 0)),
		net:        faultinject.NewNetwork(faultinject.NetConfig{Seed: opts.Seed}),
		clocks:     make(map[string]*socruntime.SkewedClock),
		evals:      make(map[string]*dstEval),
		exact:      make(map[string]float64),
		killedAt:   make(map[string]time.Time),
		gens:       make(map[string]uint64),
		trueRate:   make(map[string]float64),
		conflicted: make(map[string]bool),
	}

	f, err := cluster.NewFleet(cluster.FleetConfig{
		Replicas: opts.Replicas,
		Node: cluster.NodeConfig{
			GossipInterval: time.Second,
			SuspectAfter:   3 * time.Second,
			DeadAfter:      9 * time.Second,
			Clock:          w.base,
			Seed:           opts.Seed,
		},
		Server: server.Config{
			Service: "app",
		},
		NewEvaluator: func(id string) server.Evaluator {
			e := &dstEval{resolver: asm}
			w.evals[id] = e
			return e
		},
		NewEstimator: func(id string) *estimate.Estimator {
			est, err := estimate.New(estimate.Config{
				Window: 512,
				Clock:  w.clock(id),
			})
			if err != nil {
				panic(err) // static config; cannot fail
			}
			return est
		},
		NewClock: func(id string) socruntime.Clock { return w.clock(id) },
		Network:  w.net,
	})
	if err != nil {
		return nil, err
	}
	w.fleet = f

	// Serve each replica both scopes directly (no routing), pinning the
	// oracle and checking replica agreement.
	for _, n := range f.Nodes() {
		for _, scope := range w.scopes() {
			ans := n.Server().Serve(context.Background(), server.Request{
				Scope: scope, Service: scopeService[scope],
			})
			if !ans.IsExact() {
				w.Close()
				return nil, fmt.Errorf("dst: warmup for scope %s on %s degraded: %v", scope, n.ID(), ans.Err)
			}
			if p, seen := w.exact[scope]; seen && p != ans.Pfail {
				w.Close()
				return nil, fmt.Errorf("dst: replicas disagree on scope %s: %v vs %v", scope, p, ans.Pfail)
			}
			w.exact[scope] = ans.Pfail
		}
	}
	w.fleet.GossipRound() // first heartbeat exchange
	w.lastJoinAt = w.base.Now()
	w.snapGens()
	return w, nil
}

// clock returns the node's skewed view of the base clock, creating it
// on first use. The same SkewedClock survives kill/restart cycles — a
// machine's wrong wall clock outlives its process.
func (w *World) clock(id string) *socruntime.SkewedClock {
	c, ok := w.clocks[id]
	if !ok {
		c = socruntime.NewSkewedClock(w.base)
		w.clocks[id] = c
	}
	return c
}

func (w *World) scopes() []string {
	out := make([]string, 0, len(scopeService))
	for s := range scopeService {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Fleet exposes the simulated fleet (invariants and tests inspect it).
func (w *World) Fleet() *cluster.Fleet { return w.fleet }

// Step returns the number of events applied so far.
func (w *World) Step() int { return w.step }

// PartitionActive reports whether a split is currently in force.
func (w *World) PartitionActive() bool { return w.partitioned }

// Quiet returns the consecutive advance count since the last
// disruptive event.
func (w *World) Quiet() int { return w.quiet }

// Killed returns the killed replica IDs, sorted.
func (w *World) Killed() []string {
	out := make([]string, 0, len(w.killedAt))
	for id := range w.killedAt {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// LastAnswers returns the answers served by the current step's burst.
func (w *World) LastAnswers() []ScopedAnswer { return w.answers }

// Oracle returns the scope's exact value.
func (w *World) Oracle(scope string) float64 { return w.exact[scope] }

// Trace returns the trace lines recorded so far.
func (w *World) Trace() []TraceLine { return w.trace }

// Close stops the fleet. The world is unusable afterwards.
func (w *World) Close() { w.fleet.Stop() }

// liveNodes returns the live replicas in creation order.
func (w *World) liveNodes() []*cluster.Node { return w.fleet.Live() }

// Apply executes one event, runs every invariant, appends a trace line,
// and returns the first violation (nil if all invariants hold).
func (w *World) Apply(ev Event) *Violation {
	w.answers = nil
	w.lastEvent = ev
	// One-shot directives armed before a partition are not consumed while
	// the partition blocks the matching traffic, so they can outlive the
	// fault era that injected them and eat rumors rounds later. An advance
	// that begins with directives still armed is therefore not quiet: the
	// gossip round it drives may be silently lossy.
	armed := w.net.PendingDirectives() > 0
	w.applyEvent(ev)
	if ev.Kind == KindAdvance && !armed {
		w.quiet++
	} else {
		w.quiet = 0
	}

	var violation *Violation
	for _, inv := range w.opts.Invariants {
		if err := inv.Check(w); err != nil {
			violation = &Violation{Invariant: inv.Name, Step: w.step, Event: ev, Err: err}
			break
		}
	}
	line := TraceLine{Step: w.step, Event: ev, Digest: w.digest()}
	if violation != nil {
		line.Violation = violation.Invariant + ": " + violation.Err.Error()
	}
	w.trace = append(w.trace, line)
	if w.opts.Trace != nil {
		b, err := json.Marshal(line)
		if err == nil {
			_, _ = w.opts.Trace.Write(append(b, '\n'))
		}
	}
	w.step++
	w.snapGens()
	return violation
}

// applyEvent is total: any event applies in any state (impossible ones
// degrade to no-ops), so delta-debugged subsequences always execute.
func (w *World) applyEvent(ev Event) {
	switch ev.Kind {
	case KindAdvance:
		d := ev.D
		if d <= 0 {
			d = time.Second
		}
		w.base.Advance(d)
		w.fleet.GossipRound()
	case KindKill:
		if len(w.liveNodes()) > 1 && w.fleet.Kill(ev.Node) {
			w.killedAt[ev.Node] = w.base.Now()
		}
	case KindRestart:
		if _, err := w.fleet.Restart(ev.Node); err == nil {
			delete(w.killedAt, ev.Node)
			w.lastJoinAt = w.base.Now()
		}
	case KindSplit:
		if len(ev.Groups) > 1 {
			w.net.Partition(ev.Groups...)
			w.partitioned = true
		}
	case KindHeal:
		w.net.Heal()
		w.partitioned = false
	case KindDrop:
		w.net.DropNext(ev.From, ev.To, maxInt(1, ev.Count))
	case KindDup:
		w.net.DuplicateNext(ev.From, ev.To, maxInt(1, ev.Count))
	case KindDelay:
		w.net.DelayNext(ev.From, ev.To, maxInt(1, ev.Count), maxInt(1, ev.Slots))
	case KindSkew:
		w.clock(ev.Node).SetSkew(ev.D)
	case KindDrift:
		w.applyDrift(ev)
	case KindBurst:
		w.applyBurst(ev)
	case KindEvalFail:
		if e := w.evals[ev.Node]; e != nil {
			e.failNext += maxInt(1, ev.Count)
		}
	}
}

// applyDrift feeds one node's estimator a run of Bernoulli(Rate)
// observations drawn from the event's own seed.
func (w *World) applyDrift(ev Event) {
	n := w.fleet.Node(ev.Node)
	if n == nil || n.Stopped() {
		return
	}
	key := estimate.Key{Provider: "provider", Context: ev.Scope}
	tk := key.String()
	if prev, seen := w.trueRate[tk]; seen && prev != ev.Rate {
		w.conflicted[tk] = true
	}
	w.trueRate[tk] = ev.Rate
	rng := rand.New(rand.NewSource(ev.Seed))
	for i := 0; i < maxInt(1, ev.Count); i++ {
		n.ObserveEstimate(estimate.Outcome{
			Provider: key.Provider,
			Context:  key.Context,
			Load:     key.Load,
			Failed:   rng.Float64() < ev.Rate,
		})
	}
}

// applyBurst serves Count requests sequentially through the entry
// replica, alternating scopes and priorities, recording every answer.
// Each served request also feeds the entry's estimator a workload
// observation whose load bucket quantizes the burst size, so distinct
// burst magnitudes land in distinct estimation buckets.
func (w *World) applyBurst(ev Event) {
	entry := w.fleet.Node(ev.Node)
	if entry == nil || entry.Stopped() {
		live := w.liveNodes()
		if len(live) == 0 {
			return
		}
		entry = live[0]
	}
	dq := estimate.DefaultDepthQuantizer()
	scopes := w.scopes()
	ctx := context.Background()
	for i := 0; i < maxInt(1, ev.Count); i++ {
		scope := scopes[i%len(scopes)]
		ans := entry.Serve(ctx, server.Request{
			Scope:    scope,
			Service:  scopeService[scope],
			Priority: server.Priority(i % 3),
		})
		w.answers = append(w.answers, ScopedAnswer{Scope: scope, Answer: ans})
		entry.ObserveEstimate(estimate.Outcome{
			Provider: "workload",
			Context:  scope,
			Load:     dq.Bucket(ev.Count),
			Failed:   ans.Kind == socruntime.Unavailable,
		})
	}
}

// Run applies events in order until the first violation or the end of
// the schedule.
func (w *World) Run(events []Event) *Violation {
	for _, ev := range events {
		if v := w.Apply(ev); v != nil {
			return v
		}
	}
	return nil
}

// snapGens records every estimator's generation, keyed by node ID —
// the baseline the gen-monotonicity invariant compares the next step
// against.
func (w *World) snapGens() {
	w.gens = make(map[string]uint64, len(w.gens))
	for _, n := range w.fleet.Nodes() {
		w.gens[n.ID()] = n.Estimator().Gen()
	}
}

// digest summarizes deterministic post-step state; two runs of the same
// schedule must produce identical digests line by line. fmt renders
// maps with sorted keys, so the map fields are stable.
func (w *World) digest() string {
	kinds := make(map[string]int)
	for _, sa := range w.answers {
		kinds[sa.Answer.Kind.String()]++
	}
	gens := make(map[string]uint64)
	for _, n := range w.fleet.Nodes() {
		gens[n.ID()] = n.Estimator().Gen()
	}
	ns := w.net.Stats()
	return fmt.Sprintf("live=%d killed=%v split=%v quiet=%d gens=%v answers=%v net=%+v",
		len(w.liveNodes()), w.Killed(), w.partitioned, w.quiet, gens, kinds, ns)
}
