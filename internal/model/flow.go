package model

import (
	"fmt"
	"sort"

	"socrel/internal/expr"
)

// Completion enumerates the completion models of section 3.2: when is a
// transition out of a flow state enabled, given that some of the state's
// requests may have failed.
type Completion int

// Completion models.
const (
	// AND requires every request in the state to be fulfilled (eq. 4).
	AND Completion = iota + 1
	// OR requires at least one request to be fulfilled (eq. 5); it models
	// fault-tolerance features such as replicated providers.
	OR
	// KOfN requires at least K of the N requests to be fulfilled. The paper
	// names this model ("k out of n") without analyzing it; it generalizes
	// AND (K = N) and OR (K = 1).
	KOfN
)

func (c Completion) String() string {
	switch c {
	case AND:
		return "AND"
	case OR:
		return "OR"
	case KOfN:
		return "KofN"
	default:
		return fmt.Sprintf("Completion(%d)", int(c))
	}
}

// Dependency enumerates the dependency models of section 3.2.
type Dependency int

// Dependency models.
const (
	// NoSharing assumes the requests of a state are independent (eqs. 6-8).
	NoSharing Dependency = iota + 1
	// Sharing assumes all requests of a state target the same service
	// through the same connector, so one external failure fails them all
	// (eqs. 9-13).
	Sharing
)

func (d Dependency) String() string {
	switch d {
	case NoSharing:
		return "NoSharing"
	case Sharing:
		return "Sharing"
	default:
		return fmt.Sprintf("Dependency(%d)", int(d))
	}
}

// Request is one service request A_ij inside a flow state: all the
// activities involved in invoking and executing a target service.
type Request struct {
	// Role names the required service. The assembly's bindings map
	// (caller, role) to a concrete provider and connector; if no binding
	// exists, Role is taken as a concrete service name reached through a
	// perfect connector.
	Role string
	// Params are the actual-parameter expressions ap_j(fp), evaluated in
	// the caller's environment (formal parameters + attributes).
	Params []expr.Expr
	// ConnParams are the actual-parameter expressions for the connector
	// service that transports the request (e.g. the ip/op sizes of the
	// LPC/RPC connectors). Evaluated in the caller's environment.
	ConnParams []expr.Expr
	// Internal is the internal failure probability Pfail_int of the
	// request, an expression in the caller's environment (e.g.
	// 1-(1-phi)^N for a call to a processing service, eq. 14). A nil
	// Internal means a perfectly reliable invocation operation.
	Internal expr.Expr
}

// Transition is one edge of a flow with a probability expression over the
// owning service's environment.
type Transition struct {
	From, To string
	Prob     expr.Expr
}

// State is a node of a usage-profile flow: a set of requests with a
// completion and dependency model.
type State struct {
	Name       string
	Completion Completion
	// K is the threshold for the KOfN completion model; ignored otherwise.
	K          int
	Dependency Dependency
	Requests   []Request
}

// Flow is the abstract usage profile of a composite service: a discrete
// time Markov chain over states, from StartState to EndState.
type Flow struct {
	states      []*State
	stateByName map[string]*State
	transitions []Transition
}

// NewFlow returns an empty flow containing only the Start and End states.
func NewFlow() *Flow {
	f := &Flow{stateByName: make(map[string]*State)}
	f.addState(&State{Name: StartState})
	f.addState(&State{Name: EndState})
	return f
}

func (f *Flow) addState(s *State) {
	f.states = append(f.states, s)
	f.stateByName[s.Name] = s
}

// AddState adds a working state with the given completion and dependency
// models and returns it for request population. Adding a duplicate or
// reserved name returns an error.
func (f *Flow) AddState(name string, completion Completion, dependency Dependency) (*State, error) {
	if name == StartState || name == EndState || name == FailState {
		return nil, fmt.Errorf("%w: state name %q is reserved", ErrInvalidService, name)
	}
	if _, ok := f.stateByName[name]; ok {
		return nil, fmt.Errorf("%w: duplicate state %q", ErrInvalidService, name)
	}
	s := &State{Name: name, Completion: completion, Dependency: dependency}
	f.addState(s)
	return s, nil
}

// State returns the named state, or nil.
func (f *Flow) State(name string) *State { return f.stateByName[name] }

// States returns the states in insertion order (Start first, End second).
func (f *Flow) States() []*State { return append([]*State(nil), f.states...) }

// AddTransition adds an edge with a probability expression.
func (f *Flow) AddTransition(from, to string, prob expr.Expr) error {
	if _, ok := f.stateByName[from]; !ok {
		return fmt.Errorf("%w: transition from unknown state %q", ErrInvalidService, from)
	}
	if _, ok := f.stateByName[to]; !ok {
		return fmt.Errorf("%w: transition to unknown state %q", ErrInvalidService, to)
	}
	if from == EndState {
		return fmt.Errorf("%w: transition out of End", ErrInvalidService)
	}
	f.transitions = append(f.transitions, Transition{From: from, To: to, Prob: prob})
	return nil
}

// AddTransitionP adds an edge with a constant probability.
func (f *Flow) AddTransitionP(from, to string, p float64) error {
	return f.AddTransition(from, to, expr.Num(p))
}

// Transitions returns the flow's edges in insertion order.
func (f *Flow) Transitions() []Transition { return append([]Transition(nil), f.transitions...) }

// AddRequest appends a request to the state.
func (s *State) AddRequest(r Request) *State {
	s.Requests = append(s.Requests, r)
	return s
}

// Composite is a service realized by an assembly of other services, as
// described by its flow (section 3.2).
type Composite struct {
	name    string
	formals []string
	attrs   Attrs
	flow    *Flow
}

var _ Service = (*Composite)(nil)

// NewComposite defines a composite service with the given analytic
// interface and an empty flow.
func NewComposite(name string, formals []string, attrs Attrs) *Composite {
	return &Composite{
		name:    name,
		formals: append([]string(nil), formals...),
		attrs:   attrs,
		flow:    NewFlow(),
	}
}

// Name implements Service.
func (c *Composite) Name() string { return c.name }

// FormalParams implements Service.
func (c *Composite) FormalParams() []string { return append([]string(nil), c.formals...) }

// Attributes implements Service.
func (c *Composite) Attributes() Attrs { return c.attrs }

// Flow returns the usage-profile flow for population and inspection.
func (c *Composite) Flow() *Flow { return c.flow }

// Validate implements Service: the flow must be structurally sound —
// reserved states present, Start without requests, every expression closed
// over the service's identifiers, valid completion/dependency models, and
// every non-End state with at least one outgoing transition.
func (c *Composite) Validate() error {
	if c.name == "" {
		return fmt.Errorf("%w: empty name", ErrInvalidService)
	}
	if err := seenDuplicates(c.name, c.formals); err != nil {
		return err
	}
	outgoing := make(map[string]int)
	constSum := make(map[string]float64)
	allConst := make(map[string]bool)
	seenEdge := make(map[string]bool)
	for _, st := range c.flow.states {
		allConst[st.Name] = true
	}
	for _, tr := range c.flow.transitions {
		edge := tr.From + "\x00" + tr.To
		if seenEdge[edge] {
			return fmt.Errorf("%w: %s: duplicate transition %s -> %s", ErrInvalidService, c.name, tr.From, tr.To)
		}
		seenEdge[edge] = true
		outgoing[tr.From]++
		if tr.Prob == nil {
			return fmt.Errorf("%w: %s: transition %s -> %s has no probability", ErrInvalidService, c.name, tr.From, tr.To)
		}
		if err := checkFreeVars(tr.Prob, c.formals, c.attrs); err != nil {
			return fmt.Errorf("%w: %s: transition %s -> %s: %v", ErrInvalidService, c.name, tr.From, tr.To, err)
		}
		// Constant probabilities can be checked statically; expressions
		// over formal parameters are checked at evaluation time.
		if n, ok := expr.Bind(tr.Prob, c.attrs).(expr.Num); ok { // Bind simplifies
			v := float64(n)
			if v < -1e-12 || v > 1+1e-12 {
				return fmt.Errorf("%w: %s: P(%s -> %s) = %g", ErrInvalidService, c.name, tr.From, tr.To, v)
			}
			constSum[tr.From] += v
		} else {
			allConst[tr.From] = false
		}
	}
	for name, ok := range allConst {
		if !ok || name == EndState || outgoing[name] == 0 {
			continue
		}
		if s := constSum[name]; s < 1-1e-9 || s > 1+1e-9 {
			return fmt.Errorf("%w: %s: outgoing probabilities of %q sum to %.12g", ErrInvalidService, c.name, name, s)
		}
	}
	for _, st := range c.flow.states {
		if st.Name == StartState && len(st.Requests) > 0 {
			return fmt.Errorf("%w: %s: Start must not contain requests", ErrInvalidService, c.name)
		}
		if st.Name != EndState && outgoing[st.Name] == 0 {
			return fmt.Errorf("%w: %s: state %q has no outgoing transition", ErrInvalidService, c.name, st.Name)
		}
		if st.Name == StartState || st.Name == EndState {
			continue
		}
		switch st.Completion {
		case AND, OR:
		case KOfN:
			if st.K < 1 || st.K > len(st.Requests) {
				return fmt.Errorf("%w: %s: state %q has K=%d with %d requests", ErrInvalidService, c.name, st.Name, st.K, len(st.Requests))
			}
		default:
			return fmt.Errorf("%w: %s: state %q has no completion model", ErrInvalidService, c.name, st.Name)
		}
		switch st.Dependency {
		case NoSharing, Sharing:
		default:
			return fmt.Errorf("%w: %s: state %q has no dependency model", ErrInvalidService, c.name, st.Name)
		}
		for ri, r := range st.Requests {
			if r.Role == "" {
				return fmt.Errorf("%w: %s: state %q request %d has empty role", ErrInvalidService, c.name, st.Name, ri)
			}
			for _, e := range r.Params {
				if err := checkFreeVars(e, c.formals, c.attrs); err != nil {
					return fmt.Errorf("%w: %s: state %q request %q params: %v", ErrInvalidService, c.name, st.Name, r.Role, err)
				}
			}
			for _, e := range r.ConnParams {
				if err := checkFreeVars(e, c.formals, c.attrs); err != nil {
					return fmt.Errorf("%w: %s: state %q request %q connector params: %v", ErrInvalidService, c.name, st.Name, r.Role, err)
				}
			}
			if r.Internal != nil {
				if err := checkFreeVars(r.Internal, c.formals, c.attrs); err != nil {
					return fmt.Errorf("%w: %s: state %q request %q internal failure: %v", ErrInvalidService, c.name, st.Name, r.Role, err)
				}
			}
		}
		if st.Dependency == Sharing {
			// The paper restricts sharing to requests for the same service
			// through the same connector.
			for _, r := range st.Requests[1:] {
				if r.Role != st.Requests[0].Role {
					return fmt.Errorf("%w: %s: sharing state %q mixes roles %q and %q", ErrInvalidService, c.name, st.Name, st.Requests[0].Role, r.Role)
				}
			}
		}
	}
	return nil
}

// Roles returns the sorted set of roles requested anywhere in the flow.
func (c *Composite) Roles() []string {
	set := make(map[string]bool)
	for _, st := range c.flow.states {
		for _, r := range st.Requests {
			set[r.Role] = true
		}
	}
	out := make([]string, 0, len(set))
	for role := range set {
		out = append(out, role)
	}
	sort.Strings(out)
	return out
}

// Resolver resolves service names and role bindings during evaluation.
// The assembly package provides the standard implementation.
type Resolver interface {
	// ServiceByName returns the named service definition.
	ServiceByName(name string) (Service, error)
	// Bind resolves the (caller, role) pair to a provider service name and
	// a connector service name. An empty connector name means a perfect
	// (zero failure) connection. ErrNoBinding means the role should be
	// treated as a concrete service name.
	Bind(caller, role string) (provider, connector string, err error)
}
