package assembly

import (
	"errors"
	"fmt"
	"math"

	"socrel/internal/expr"
	"socrel/internal/model"
)

// PaperParams holds every constant of the section 4 example. The paper
// plots Figure 6 without publishing most of them; Defaults documents the
// values chosen for the reproduction (see DESIGN.md section 5) — picked so
// that the crossover structure described in the paper's prose holds within
// the plotted list-size range.
type PaperParams struct {
	// S1, Lambda1 are cpu1's speed (op/s) and failure rate (1/s).
	S1, Lambda1 float64
	// S2, Lambda2 are cpu2's speed and failure rate.
	S2, Lambda2 float64
	// B, Gamma are net12's bandwidth (B/s) and failure rate (1/s).
	B, Gamma float64
	// C is the RPC marshal/unmarshal cost (operations per size unit).
	C float64
	// M is the RPC transmission cost (bytes per size unit).
	M float64
	// L is the LPC control-transfer cost (operations).
	L float64
	// Q is the probability that the list is not already sorted.
	Q float64
	// Phi is the search service's software failure rate per operation.
	Phi float64
	// Phi1, Phi2 are the sort1 (local) and sort2 (remote) software failure
	// rates per operation.
	Phi1, Phi2 float64
}

// DefaultPaperParams returns the documented reproduction constants:
// fast reliable processors (hardware failure negligible, as Figure 6's
// shape implies), a 100 kB/s network with 270 bytes per abstract size unit
// (SOAP/XML-era encoding), q = 0.9, phi = 1e-7, phi2 = 1e-7 (one order of
// magnitude better than the default phi1 = 1e-6, as in the paper).
// Gamma and Phi1 are the quantities Figure 6 sweeps.
func DefaultPaperParams() PaperParams {
	return PaperParams{
		S1: 1e9, Lambda1: 1e-10,
		S2: 1e9, Lambda2: 1e-10,
		B: 1e5, Gamma: 5e-3,
		C: 10, M: 270, L: 1000,
		Q:   0.9,
		Phi: 1e-7, Phi1: 1e-6, Phi2: 1e-7,
	}
}

// Figure 6 sweep values from the paper.
var (
	// Figure6Phi1 are the local sort software failure rates of Figure 6.
	Figure6Phi1 = []float64{1e-6, 5e-6}
	// Figure6Gamma are the network failure rates of Figure 6.
	Figure6Gamma = []float64{1e-1, 5e-2, 2.5e-2, 5e-3}
)

// newSearch builds the search service of Figure 1: formal parameters
// (elem, list, res) — the sizes of the searched element, the list, and the
// result — and software failure rate phi. With probability q the list must
// first be sorted (a request for the "sort" role, transported by whatever
// connector the assembly binds, with connector parameters ip = elem+list,
// op = res); then log2(list) internal operations perform the search on the
// "cpu" role.
func newSearch(p PaperParams) (*model.Composite, error) {
	search := model.NewComposite("search", []string{"elem", "list", "res"},
		model.Attrs{"phi": p.Phi, "q": p.Q})
	sortSt, err := search.Flow().AddState("sort", model.AND, model.NoSharing)
	if err != nil {
		return nil, err
	}
	sortSt.AddRequest(model.Request{
		Role:       "sort",
		Params:     []expr.Expr{expr.Var("list")},
		ConnParams: []expr.Expr{expr.MustParse("elem + list"), expr.Var("res")},
		// A method call is assumed perfectly reliable (section 4).
		Internal: nil,
	})
	cpuSt, err := search.Flow().AddState("lookup", model.AND, model.NoSharing)
	if err != nil {
		return nil, err
	}
	cpuSt.AddRequest(model.Request{
		Role:     "cpu",
		Params:   []expr.Expr{expr.MustParse("log2(list)")},
		Internal: model.SoftwareFailure(expr.Var("phi"), expr.MustParse("log2(list)")),
	})
	flow := search.Flow()
	if err := flow.AddTransition(model.StartState, "sort", expr.Var("q")); err != nil {
		return nil, err
	}
	if err := flow.AddTransition(model.StartState, "lookup", expr.MustParse("1 - q")); err != nil {
		return nil, err
	}
	if err := flow.AddTransitionP("sort", "lookup", 1); err != nil {
		return nil, err
	}
	if err := flow.AddTransitionP("lookup", model.EndState, 1); err != nil {
		return nil, err
	}
	return search, nil
}

// newSort builds a sort service of Figure 1: one formal parameter (the
// list size) and software failure rate phi; it issues list*log2(list)
// operations to the "cpu" role.
func newSort(name string, phi float64) (*model.Composite, error) {
	sort := model.NewComposite(name, []string{"list"}, model.Attrs{"phi": phi})
	st, err := sort.Flow().AddState("work", model.AND, model.NoSharing)
	if err != nil {
		return nil, err
	}
	st.AddRequest(model.Request{
		Role:     "cpu",
		Params:   []expr.Expr{expr.MustParse("list * log2(list)")},
		Internal: model.SoftwareFailure(expr.Var("phi"), expr.MustParse("list * log2(list)")),
	})
	if err := sort.Flow().AddTransitionP(model.StartState, "work", 1); err != nil {
		return nil, err
	}
	if err := sort.Flow().AddTransitionP("work", model.EndState, 1); err != nil {
		return nil, err
	}
	return sort, nil
}

// ErrUnknownPaper reports a paper example name other than "local" or
// "remote".
var ErrUnknownPaper = errors.New("unknown paper assembly")

// Paper builds the paper's example assembly named "local" (Figure 3) or
// "remote" (Figure 4) with DefaultPaperParams.
func Paper(name string) (*Assembly, error) {
	switch name {
	case "local":
		return LocalAssembly(DefaultPaperParams())
	case "remote":
		return RemoteAssembly(DefaultPaperParams())
	}
	return nil, fmt.Errorf("%w %q (want local or remote)", ErrUnknownPaper, name)
}

// LocalAssembly builds the local assembly of Figure 3: search and sort1 on
// the same node cpu1, connected by an LPC connector; all "local processing"
// connectors are perfect (empty connector names).
func LocalAssembly(p PaperParams) (*Assembly, error) {
	a := New("local")
	search, err := newSearch(p)
	if err != nil {
		return nil, err
	}
	sort1, err := newSort("sort1", p.Phi1)
	if err != nil {
		return nil, err
	}
	lpc, err := model.NewLPC("lpc", p.L)
	if err != nil {
		return nil, err
	}
	for _, svc := range []model.Service{
		search, sort1, lpc,
		model.NewCPU("cpu1", p.S1, p.Lambda1),
	} {
		if err := a.AddService(svc); err != nil {
			return nil, err
		}
	}
	a.AddBinding("search", "sort", "sort1", "lpc")
	a.AddBinding("search", "cpu", "cpu1", "")
	a.AddBinding("sort1", "cpu", "cpu1", "")
	a.AddBinding("lpc", model.RoleCPU, "cpu1", "")
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("assembly: local: %w", err)
	}
	return a, nil
}

// RemoteAssembly builds the remote assembly of Figure 4: search on cpu1,
// sort2 on cpu2, connected by an RPC connector over net12.
func RemoteAssembly(p PaperParams) (*Assembly, error) {
	a := New("remote")
	search, err := newSearch(p)
	if err != nil {
		return nil, err
	}
	sort2, err := newSort("sort2", p.Phi2)
	if err != nil {
		return nil, err
	}
	rpc, err := model.NewRPC("rpc", p.C, p.M)
	if err != nil {
		return nil, err
	}
	for _, svc := range []model.Service{
		search, sort2, rpc,
		model.NewCPU("cpu1", p.S1, p.Lambda1),
		model.NewCPU("cpu2", p.S2, p.Lambda2),
		model.NewNetwork("net12", p.B, p.Gamma),
	} {
		if err := a.AddService(svc); err != nil {
			return nil, err
		}
	}
	a.AddBinding("search", "sort", "sort2", "rpc")
	a.AddBinding("search", "cpu", "cpu1", "")
	a.AddBinding("sort2", "cpu", "cpu2", "")
	a.AddBinding("rpc", model.RoleClientCPU, "cpu1", "")
	a.AddBinding("rpc", model.RoleServerCPU, "cpu2", "")
	a.AddBinding("rpc", model.RoleNet, "net12", "")
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("assembly: remote: %w", err)
	}
	return a, nil
}

// The closed forms of section 4, used to validate the generic engine
// (experiment T1). Equation numbers refer to the paper.

// ClosedFormCPU is equation (15)/(16): Pfail(cpu, N) = 1 - exp(-lambda*N/s).
func ClosedFormCPU(lambda, s, n float64) float64 {
	return 1 - math.Exp(-lambda*n/s)
}

// ClosedFormNet is equation (17): Pfail(net, B) = 1 - exp(-gamma*B/b).
func ClosedFormNet(gamma, b, bytes float64) float64 {
	return 1 - math.Exp(-gamma*bytes/b)
}

// ClosedFormSort is equation (18):
// Pfail(sortx, L) = 1 - (1-phix)^(L*log2 L) * exp(-lambdax*L*log2 L/sx).
func ClosedFormSort(phi, lambda, s, list float64) float64 {
	ops := list * math.Log2(list)
	return 1 - math.Pow(1-phi, ops)*math.Exp(-lambda*ops/s)
}

// ClosedFormLPC is equation (19): Pfail(lpc) = 1 - exp(-lambda1*l/s1).
func ClosedFormLPC(p PaperParams) float64 {
	return 1 - math.Exp(-p.Lambda1*p.L/p.S1)
}

// ClosedFormRPC is equation (20):
// Pfail(rpc, ip, op) = 1 - exp(-lambda1*c(ip+op)/s1) * exp(-gamma*m(ip+op)/b)
// * exp(-lambda2*c(ip+op)/s2).
func ClosedFormRPC(p PaperParams, ip, op float64) float64 {
	t := ip + op
	return 1 - math.Exp(-p.Lambda1*p.C*t/p.S1)*
		math.Exp(-p.Gamma*p.M*t/p.B)*
		math.Exp(-p.Lambda2*p.C*t/p.S2)
}

// ClosedFormSearch is equation (22) specialized to an assembly:
// remote selects the RPC connector and sort2/cpu2; otherwise the LPC
// connector and sort1/cpu1.
func ClosedFormSearch(p PaperParams, remote bool, elem, list, res float64) float64 {
	lookupOK := math.Pow(1-p.Phi, math.Log2(list)) * math.Exp(-p.Lambda1*math.Log2(list)/p.S1)
	var connFail, sortFail float64
	if remote {
		connFail = ClosedFormRPC(p, elem+list, res)
		sortFail = ClosedFormSort(p.Phi2, p.Lambda2, p.S2, list)
	} else {
		connFail = ClosedFormLPC(p)
		sortFail = ClosedFormSort(p.Phi1, p.Lambda1, p.S1, list)
	}
	return (1-p.Q)*(1-lookupOK) +
		p.Q*(1-lookupOK*(1-connFail)*(1-sortFail))
}
