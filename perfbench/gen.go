package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"socrel/internal/assembly"
)

// Every input the program sees is generated here from the workload seed:
// model documents (the paper's section 4 system with drawn constants),
// request parameters, tenant scopes, popularity ranks and outcome
// streams. The same seed gives the same inputs byte for byte.

// Request-space constants shared by the workloads.
const (
	minLog2List = 4  // smallest list size is 2^4
	maxLog2List = 20 // largest list size is 2^20
	elemSize    = 1  // search element size (paper's elem)
	resSize     = 1  // search result size (paper's res)
	searchSvc   = "search"
	asmName     = "remote" // Figure 4: sort2 on cpu2 behind RPC over net12
)

// rng streams are split per purpose so one workload's draws never shift
// another stream when a workload changes how many values it consumes.
func newRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// logUniform draws from [lo, hi] uniformly in log space.
func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo)))
}

// drawList draws one list size, log-uniform over 2^4..2^20. The value is
// continuous, so repeated draws essentially never repeat a point and any
// per-point memo misses.
func drawList(r *rand.Rand) float64 {
	return math.Exp2(minLog2List + r.Float64()*(maxLog2List-minLog2List))
}

// drawParams draws the paper system's constants around the reproduction
// defaults: every failure rate spans two decades, q stays in [0.5, 1).
// Speeds, bandwidth and connector costs keep their documented values.
func drawParams(r *rand.Rand) assembly.PaperParams {
	p := assembly.DefaultPaperParams()
	p.Lambda1 = logUniform(r, 1e-11, 1e-9)
	p.Lambda2 = logUniform(r, 1e-11, 1e-9)
	p.Gamma = logUniform(r, 1e-3, 1e-1)
	p.Phi = logUniform(r, 1e-8, 1e-6)
	p.Phi1 = logUniform(r, 1e-7, 1e-5)
	p.Phi2 = logUniform(r, 1e-8, 1e-6)
	p.Q = 0.5 + 0.5*r.Float64()
	return p
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// paperADL renders the paper's section 4 system (examples/paper.adl:
// search, sort1/sort2, cpu1/cpu2, net12, LPC and RPC, with the local and
// remote assemblies) with the given constants. Numbers are printed with
// the shortest exact representation, so the parsed model carries
// exactly p and assembly.ClosedFormSearch(p, ...) is its oracle.
func paperADL(p assembly.PaperParams) string {
	var b strings.Builder
	fmt.Fprintf(&b, "service cpu1 cpu {\n    speed %s\n    rate %s\n}\n", num(p.S1), num(p.Lambda1))
	fmt.Fprintf(&b, "service cpu2 cpu {\n    speed %s\n    rate %s\n}\n", num(p.S2), num(p.Lambda2))
	fmt.Fprintf(&b, "service net12 network {\n    bandwidth %s\n    rate %s\n}\n", num(p.B), num(p.Gamma))
	fmt.Fprintf(&b, "service lpc lpc {\n    l %s\n}\n", num(p.L))
	fmt.Fprintf(&b, "service rpc rpc {\n    c %s\n    m %s\n}\n", num(p.C), num(p.M))
	for _, s := range []struct {
		name string
		phi  float64
	}{{"sort1", p.Phi1}, {"sort2", p.Phi2}} {
		fmt.Fprintf(&b, `service %s composite(list) {
    attr phi %s
    state work and nosharing {
        call cpu(list * log2(list)) internal 1 - (1 - phi)^(list * log2(list))
    }
    transition Start -> work prob 1
    transition work -> End prob 1
}
`, s.name, num(s.phi))
	}
	fmt.Fprintf(&b, `service search composite(elem, list, res) {
    attr phi %s
    attr q %s
    state sort and nosharing {
        call sort(list) connector(elem + list, res)
    }
    state lookup and nosharing {
        call cpu(log2(list)) internal 1 - (1 - phi)^log2(list)
    }
    transition Start -> sort prob q
    transition Start -> lookup prob 1 - q
    transition sort -> lookup prob 1
    transition lookup -> End prob 1
}
assembly local {
    bind search.sort -> sort1 via lpc
    bind search.cpu -> cpu1
    bind sort1.cpu -> cpu1
    bind lpc.cpu -> cpu1
}
assembly remote {
    bind search.sort -> sort2 via rpc
    bind search.cpu -> cpu1
    bind sort2.cpu -> cpu2
    bind rpc.clientcpu -> cpu1
    bind rpc.servercpu -> cpu2
    bind rpc.net -> net12
}
`, num(p.Phi), num(p.Q))
	return b.String()
}

// searchParams is the actual-parameter vector of one search request.
func searchParams(list float64) []float64 { return []float64{elemSize, list, resSize} }

// oracleSearch is the paper's closed form (eqs. 15-22) for the remote
// assembly at one list size.
func oracleSearch(p assembly.PaperParams, list float64) float64 {
	return assembly.ClosedFormSearch(p, true, elemSize, list, resSize)
}

// closeEnough compares an answer with its oracle: the engines agree
// with each other to about 1e-12, so 1e-9 relative (absolute below 1)
// catches any wrong formula while tolerating rounding order.
func closeEnough(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// Tenant scopes of the fleet workload: with 8 scopes and 3 replicas the
// owner of a request's route key is the entry replica about a third of
// the time, so about two thirds of requests take a forwarding hop.
const fleetTenants = 8

// pointGen is the request stream of fleet-point and whatif-batch.
type pointGen struct{ r *rand.Rand }

func newPointGen(seed int64) *pointGen { return &pointGen{r: newRand(seed, 1)} }

// next returns one request: its tenant scope and list size.
func (g *pointGen) next() (scope string, list float64) {
	scope = tenantScopes[g.r.Intn(fleetTenants)]
	return scope, drawList(g.r)
}

// fillGrid overwrites grid with the next len(grid) list sizes.
func (g *pointGen) fillGrid(grid [][]float64) {
	for _, pt := range grid {
		pt[0], pt[1], pt[2] = elemSize, drawList(g.r), resSize
	}
}

var tenantScopes = func() []string {
	s := make([]string, fleetTenants)
	for i := range s {
		s[i] = "tenant-" + strconv.Itoa(i)
	}
	return s
}()

// Corpus shape of tenant-churn: 4 tenants x 16 models, model popularity
// Zipf(s = 1.1) over a seeded permutation, and a publish of a new
// version of one of the 4 most popular models every publishEvery ops.
// With a 24-entry artifact cache this holds the read hit ratio near 0.71
// on every seed, so the median op is a cache hit and the 90th percentile
// a miss, each about 0.2 of the op distribution away from the boundary
// between the two modes.
const (
	churnTenants   = 4
	churnModels    = 16
	churnCacheSize = 24
	churnZipfS     = 1.1
	publishEvery   = 32
	hotModels      = 4
)

// modelID names one corpus entry.
type modelID struct{ tenant, model string }

func corpusID(i int) modelID {
	return modelID{
		tenant: "tenant" + strconv.Itoa(i/churnModels),
		model:  "search" + strconv.Itoa(i%churnModels),
	}
}

// churnCorpus draws the initial constants of every corpus model.
func churnCorpus(seed int64) []assembly.PaperParams {
	r := newRand(seed, 2)
	out := make([]assembly.PaperParams, churnTenants*churnModels)
	for i := range out {
		out[i] = drawParams(r)
	}
	return out
}

// churnOp is one tenant-churn client request: a read of model's latest
// version at list, or (publish) a new version of model with params.
type churnOp struct {
	model   int
	publish bool
	list    float64
	params  assembly.PaperParams
}

// churnGen is the tenant-churn request stream.
type churnGen struct {
	r    *rand.Rand
	zipf *rand.Zipf
	rank []int // popularity rank -> corpus index
	n    int
}

func newChurnGen(seed int64) *churnGen {
	r := newRand(seed, 3)
	n := churnTenants * churnModels
	return &churnGen{
		r:    r,
		zipf: rand.NewZipf(r, churnZipfS, 1, uint64(n-1)),
		rank: r.Perm(n),
	}
}

func (g *churnGen) next() churnOp {
	g.n++
	if g.n%publishEvery == 0 {
		return churnOp{model: g.rank[g.r.Intn(hotModels)], publish: true, params: drawParams(g.r)}
	}
	return churnOp{model: g.rank[g.zipf.Uint64()], list: drawList(g.r)}
}

// Drift episodes: the true failure rate of net12 steps between driftLo
// and driftStep*driftLo, so each episode is a confirmed drift the
// reactor must act on, and two fixed rates keep the estimator's state
// stationary over a run. The rates are constants, not drawn: how many
// outcomes a drift takes to confirm depends steeply on the rate, and a
// drawn rate made the median episode vary 3x from seed to seed.
const (
	driftLo   = 0.08
	driftStep = 4
)

// driftSetup draws the drift workload's model (net12 starts at driftLo)
// and the list size its supervisor predicts for.
func driftSetup(seed int64) (p assembly.PaperParams, list float64) {
	r := newRand(seed, 4)
	p = drawParams(r)
	p.Gamma = driftLo
	return p, drawList(r)
}

// outcomeGen draws observed invocation outcomes: one exposure unit per
// invocation, failing with probability 1 - exp(-rate).
type outcomeGen struct{ r *rand.Rand }

func newOutcomeGen(seed int64) *outcomeGen { return &outcomeGen{r: newRand(seed, 5)} }

func (g *outcomeGen) failed(rate float64) bool { return g.r.Float64() < -math.Expm1(-rate) }
