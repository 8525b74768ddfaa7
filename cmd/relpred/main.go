// Command relpred predicts the reliability of a service in an assembly
// described in the ADL (textual DSL or JSON).
//
// Usage:
//
//	relpred -file system.adl -assembly local -service search -params 1,4096,1
//	relpred -file system.adl -assembly local -service search -params 1,4096,1 -report
//	relpred -file system.adl -tojson           # convert DSL to JSON
//	relpred -paper local -params 1,4096,1      # built-in paper example
//	relpred -model system.adl -params 1,4096,1             # file, auto-detected
//	relpred -model acme/search@2 -store ./models -params 1 # stored version
//	relpred -observe outcomes.jsonl -bounds 'db=0.05'      # fit failure rates offline
//	relpred -paper local -explain -grad                    # closed-form Pfail + partials
//
// -observe replays a JSONL stream of observed invocation outcomes
// ({"provider":..,"context":..,"failed":..,"exposure":..,"latency_ms":..,
// "t_ms":..}) through the online failure-parameter estimator and prints
// each bucket's windowed-MLE rate with its confidence interval; -bounds
// arms drift detectors against currently bound model parameters and
// prints their verdicts.
//
// -model accepts either an ADL file path (used when the path exists) or a
// model-store reference tenant/name[@version] resolved against -store;
// omitting @version reads the latest published version.
//
// With -fixedpoint, recursive (mutually calling) assemblies are solved by
// fixed-point iteration instead of being rejected.
//
// The process exit code reflects the typed error taxonomy, so scripts and
// schedulers can branch on the failure class without parsing stderr:
//
//	0  success (or -h/-help)
//	1  other failure (I/O, ADL parse, unclassified evaluation errors)
//	2  usage errors (bad flags, missing -file/-paper, unknown -paper)
//	3  cancellation (deadline expired, interrupted)
//	4  iterative solver did not converge
//	5  model defects (defective flows, non-finite laws, invalid services,
//	   panics isolated by the engine)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"socrel/internal/adl"
	"socrel/internal/assembly"
	"socrel/internal/core"
	"socrel/internal/dot"
	"socrel/internal/model"
	"socrel/internal/sensitivity"
	"socrel/internal/store"
)

// Process exit codes; see the package comment.
const (
	exitOK            = 0
	exitFailure       = 1
	exitUsage         = 2
	exitCanceled      = 3
	exitNoConvergence = 4
	exitDefect        = 5
)

// errUsage marks command-line mistakes (as opposed to evaluation
// failures) so they map to the usage exit code.
var errUsage = errors.New("usage error")

// errModelDefect marks a model that was located but is unusable (parse
// failure, corrupt stored record, failed validation), mapping -model
// loading failures to the defect exit code.
var errModelDefect = errors.New("model defect")

// exitCodeFor maps an error to the process exit code through the typed
// taxonomy: cancellation, non-convergence, and model defects are
// distinct, everything else is a generic failure.
func exitCodeFor(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return exitOK
	case errors.Is(err, errUsage):
		return exitUsage
	case errors.Is(err, errModelDefect):
		return exitDefect
	}
	switch core.ErrorClass(err) {
	case "canceled":
		return exitCanceled
	case "no-convergence":
		return exitNoConvergence
	case "defective-flow", "non-finite", "panic", "invalid-service",
		"invalid-sharing", "arity", "unresolved-binding":
		return exitDefect
	default:
		return exitFailure
	}
}

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "relpred:", err)
	}
	os.Exit(exitCodeFor(err))
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("relpred", flag.ContinueOnError)
	file := fs.String("file", "", "ADL file (.adl DSL or .json); '-' reads stdin")
	asmName := fs.String("assembly", "", "assembly name within the document")
	service := fs.String("service", "search", "service to evaluate")
	paramsArg := fs.String("params", "", "comma-separated actual parameters")
	report := fs.Bool("report", false, "print the per-state failure breakdown")
	toJSON := fs.Bool("tojson", false, "convert the document to JSON and exit")
	fixedPoint := fs.Bool("fixedpoint", false, "solve recursive assemblies by fixed-point iteration")
	paper := fs.String("paper", "", "use the built-in paper example: 'local' or 'remote'")
	modelArg := fs.String("model", "", "model to load: an ADL file path, or a store ref tenant/name[@version]")
	storeDir := fs.String("store", "", "model store directory backing -model store refs")
	dotOut := fs.String("dot", "", "emit Graphviz DOT instead of a prediction: 'flow', 'failures', or 'assembly'")
	sweep := fs.String("sweep", "", "sweep one formal parameter: 'name=lo:hi:n' (geometric grid); the -params value for that position is ignored")
	timeout := fs.Duration("timeout", 0, "evaluation deadline (e.g. 500ms); expired runs fail with the typed error class (0 = none)")
	stats := fs.Bool("stats", false, "print compiled-engine counters after the evaluation: memo hits/misses count composite invocations that reused an identical earlier one within the same evaluation, or were solved; sharing is per evaluation, never across evaluations")
	explain := fs.Bool("explain", false, "print the closed-form Pfail expression of the service (paper eqs. (15)-(22)) instead of a prediction")
	grad := fs.Bool("grad", false, "with -explain, also print the closed-form partial derivative per formal parameter")
	observe := fs.String("observe", "", "replay an outcomes JSONL file ('-' = stdin) through the failure-parameter estimator and print fitted rates")
	boundsSpec := fs.String("bounds", "", "comma-separated key=rate drift bounds for -observe (key: provider, provider|context, or provider|context|load)")
	confidence := fs.Float64("confidence", 0.95, "confidence level for -observe interval fits")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	if *observe != "" {
		if *file != "" || *paper != "" || *modelArg != "" {
			return fmt.Errorf("%w: -observe is exclusive with -file, -paper, and -model", errUsage)
		}
		return runObserve(out, *observe, *boundsSpec, *confidence)
	}
	if *boundsSpec != "" {
		return fmt.Errorf("%w: -bounds requires -observe", errUsage)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	params, err := parseParams(*paramsArg)
	if err != nil {
		return err
	}

	opts := core.Options{}
	if *fixedPoint {
		opts.Cycles = core.CycleFixedPoint
	}

	var asm *assembly.Assembly
	switch {
	case *modelArg != "":
		if *file != "" || *paper != "" {
			return fmt.Errorf("%w: -model is exclusive with -file and -paper", errUsage)
		}
		doc, err := loadModel(*modelArg, *storeDir)
		if err != nil {
			return err
		}
		if *toJSON {
			data, err := adl.MarshalJSON(doc)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(out, string(data))
			return err
		}
		asm, err = buildFromDocument(doc, *asmName)
		if err != nil {
			if errors.Is(err, errUsage) {
				return err
			}
			return fmt.Errorf("%w: %w", errModelDefect, err)
		}
	case *paper != "":
		asm, err = assembly.Paper(*paper)
		if errors.Is(err, assembly.ErrUnknownPaper) {
			return fmt.Errorf("%w: -paper: %w", errUsage, err)
		}
		if err != nil {
			return err
		}
	case *file != "":
		doc, err := adl.Load(*file)
		if err != nil {
			return err
		}
		if *toJSON {
			data, err := adl.MarshalJSON(doc)
			if err != nil {
				return err
			}
			_, err = fmt.Fprintln(out, string(data))
			return err
		}
		asm, err = buildFromDocument(doc, *asmName)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: either -file or -paper is required", errUsage)
	}

	if *dotOut != "" {
		return emitDOT(out, asm, *dotOut, *service, params, opts)
	}
	if *grad && !*explain {
		return fmt.Errorf("%w: -grad requires -explain", errUsage)
	}
	if *explain {
		return runExplain(out, asm, opts, *service, params, *grad)
	}
	if *sweep != "" {
		return runSweep(ctx, out, asm, opts, *service, params, *sweep, *stats)
	}

	if *report {
		rep, err := core.New(asm, opts).Report(*service, params...)
		if err != nil {
			return withClass(err)
		}
		_, err = fmt.Fprint(out, rep.String())
		return err
	}
	var pfail float64
	if ca, cerr := core.CompileParametric(asm, opts, core.ParametricOptions{}, *service); cerr == nil {
		pfail, err = ca.PfailCtx(ctx, *service, params...)
		printMemoStats(out, ca, *stats)
	} else if errors.Is(cerr, core.ErrNotCompilable) {
		if *stats {
			fmt.Fprintln(out, "memo: unavailable (interpreted path)")
		}
		pfail, err = core.New(asm, opts).PfailCtx(ctx, *service, params...)
	} else {
		return withClass(cerr)
	}
	if err != nil {
		return withClass(err)
	}
	_, err = fmt.Fprintf(out, "service %s(%s): Pfail = %.9g, reliability = %.9g\n",
		*service, *paramsArg, pfail, 1-pfail)
	return err
}

// printMemoStats renders the compiled engine's sharing counters (how many
// composite invocations each evaluation answered from an earlier identical
// one rather than by a solve), plus the parametric counters showing how
// many points the closed form answered.
func printMemoStats(out io.Writer, ca *core.CompiledAssembly, enabled bool) {
	if !enabled || ca == nil {
		return
	}
	ms := ca.MemoStats()
	fmt.Fprintf(out, "memo: hits=%d misses=%d\n", ms.Hits, ms.Misses)
	ps := ca.ParametricStats()
	fmt.Fprintf(out, "parametric: outputs=%d fallbacks=%d points=%d numeric=%d gradients=%d\n",
		ps.Outputs, ps.Fallbacks, ps.ParametricPoints, ps.NumericPoints, ps.GradientPoints)
}

// runExplain prints the service's closed-form failure probability — the
// symbolic solution of the absorbing chain, the compiled analogue of the
// paper's equations (15)-(22) — and, with grad, the exact partial
// derivative with respect to each formal parameter. When actual
// parameters are supplied the forms are also evaluated at that point.
func runExplain(out io.Writer, asm *assembly.Assembly, opts core.Options, service string, params []float64, grad bool) error {
	ca, err := core.CompileParametric(asm, opts, core.ParametricOptions{}, service)
	if err != nil {
		return withClass(err)
	}
	form, ok := ca.ClosedForm(service)
	if !ok {
		if reason, fell := ca.ParametricFallbacks()[service]; fell {
			return fmt.Errorf("no closed form for %s (numeric evaluation still available): %w", service, reason)
		}
		return fmt.Errorf("no closed form for %s", service)
	}
	formals, _ := ca.FormalParams(service)
	fmt.Fprintf(out, "Pfail_%s(%s) = %s\n", service, strings.Join(formals, ", "), form)
	if grad {
		for _, f := range formals {
			g, ok := ca.ClosedFormGradient(service, f)
			if !ok {
				fmt.Fprintf(out, "dPfail_%s/d%s: not differentiable\n", service, f)
				continue
			}
			fmt.Fprintf(out, "dPfail_%s/d%s = %s\n", service, f, g)
		}
	}
	if len(params) == 0 {
		return nil
	}
	pfail, err := ca.Pfail(service, params...)
	if err != nil {
		return withClass(err)
	}
	fmt.Fprintf(out, "at (%s): Pfail = %.9g, reliability = %.9g\n",
		joinFloats(params), pfail, 1-pfail)
	if grad {
		sens, err := ca.Sensitivities(service, params...)
		if err != nil {
			return withClass(err)
		}
		for i, f := range formals {
			fmt.Fprintf(out, "at (%s): dPfail/d%s = %.9g\n", joinFloats(params), f, sens[i])
		}
	}
	return nil
}

// joinFloats renders params the way they were typed: comma-separated.
func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// withClass annotates an evaluation failure with its typed error class, so
// scripts driving the CLI can branch on the taxonomy ("class=canceled",
// "class=defective-flow", ...) without parsing prose.
func withClass(err error) error {
	if class := core.ErrorClass(err); class != "" {
		return fmt.Errorf("class=%s: %w", class, err)
	}
	return err
}

// runSweep evaluates the service over a geometric grid of one formal
// parameter and prints a CSV series. The grid is evaluated through the
// compiled engine's batch entry point when the assembly compiles, falling
// back to the interpreted evaluator otherwise (recursive assemblies,
// fixed-point policies, dynamic flows); both paths honor ctx.
func runSweep(ctx context.Context, out io.Writer, asm *assembly.Assembly, opts core.Options, service string, params []float64, spec string, stats bool) error {
	name, lo, hi, n, err := parseSweepSpec(spec)
	if err != nil {
		return err
	}
	svc, err := asm.ServiceByName(service)
	if err != nil {
		return err
	}
	pos := -1
	for i, f := range svc.FormalParams() {
		if f == name {
			pos = i
			break
		}
	}
	if pos < 0 {
		return fmt.Errorf("service %s has no formal parameter %q (has %v)", service, name, svc.FormalParams())
	}
	if len(params) != len(svc.FormalParams()) {
		return fmt.Errorf("-params must supply all %d parameters of %s (the swept one is overwritten)", len(svc.FormalParams()), service)
	}
	grid, err := sensitivity.GeomSpace(lo, hi, n)
	if err != nil {
		return err
	}
	paramSets := make([][]float64, len(grid))
	for i, x := range grid {
		p := append([]float64(nil), params...)
		p[pos] = x
		paramSets[i] = p
	}
	pfails, ca, err := sweepPfails(ctx, asm, opts, service, paramSets)
	if err != nil {
		return withClass(err)
	}
	fmt.Fprintf(out, "%s,pfail,reliability\n", name)
	for i, x := range grid {
		fmt.Fprintf(out, "%g,%.9g,%.9g\n", x, pfails[i], 1-pfails[i])
	}
	if stats && ca == nil {
		fmt.Fprintln(out, "memo: unavailable (interpreted path)")
	}
	printMemoStats(out, ca, stats)
	return nil
}

// sweepPfails evaluates every parameter set, compiled (and, when the
// flow admits one, via the closed parametric form) when possible; the
// returned CompiledAssembly is nil on the interpreted fallback.
func sweepPfails(ctx context.Context, asm *assembly.Assembly, opts core.Options, service string, paramSets [][]float64) ([]float64, *core.CompiledAssembly, error) {
	ca, err := core.CompileParametric(asm, opts, core.ParametricOptions{}, service)
	switch {
	case err == nil:
		pfails, err := ca.PfailBatchCtx(ctx, service, paramSets)
		return pfails, ca, err
	case !errors.Is(err, core.ErrNotCompilable):
		return nil, nil, err
	}
	ev := core.New(asm, opts)
	pfails := make([]float64, len(paramSets))
	for i, p := range paramSets {
		pfail, err := ev.PfailCtx(ctx, service, p...)
		if err != nil {
			return nil, nil, err
		}
		pfails[i] = pfail
	}
	return pfails, nil, nil
}

// parseSweepSpec parses "name=lo:hi:n".
func parseSweepSpec(spec string) (name string, lo, hi float64, n int, err error) {
	eq := strings.Index(spec, "=")
	if eq <= 0 {
		return "", 0, 0, 0, fmt.Errorf("sweep spec %q: want name=lo:hi:n", spec)
	}
	name = spec[:eq]
	parts := strings.Split(spec[eq+1:], ":")
	if len(parts) != 3 {
		return "", 0, 0, 0, fmt.Errorf("sweep spec %q: want name=lo:hi:n", spec)
	}
	if lo, err = strconv.ParseFloat(parts[0], 64); err != nil {
		return "", 0, 0, 0, fmt.Errorf("sweep lo: %w", err)
	}
	if hi, err = strconv.ParseFloat(parts[1], 64); err != nil {
		return "", 0, 0, 0, fmt.Errorf("sweep hi: %w", err)
	}
	if n, err = strconv.Atoi(parts[2]); err != nil {
		return "", 0, 0, 0, fmt.Errorf("sweep n: %w", err)
	}
	return name, lo, hi, n, nil
}

// emitDOT renders the requested Graphviz view.
func emitDOT(out io.Writer, asm *assembly.Assembly, kind, service string, params []float64, opts core.Options) error {
	switch kind {
	case "assembly":
		_, err := fmt.Fprint(out, dot.Assembly(asm))
		return err
	case "flow", "failures":
		svc, err := asm.ServiceByName(service)
		if err != nil {
			return err
		}
		comp, ok := svc.(*model.Composite)
		if !ok {
			return fmt.Errorf("service %q is simple; only composite flows can be drawn", service)
		}
		if kind == "flow" {
			_, err := fmt.Fprint(out, dot.Flow(comp))
			return err
		}
		s, err := dot.FlowWithFailures(asm, comp, params, opts)
		if err != nil {
			return err
		}
		_, err = fmt.Fprint(out, s)
		return err
	default:
		return fmt.Errorf("unknown -dot kind %q (want flow, failures, or assembly)", kind)
	}
}

// buildFromDocument builds the named assembly; a document with several
// assemblies and no -assembly is a usage error.
func buildFromDocument(doc *adl.Document, name string) (*assembly.Assembly, error) {
	asm, err := doc.BuildAssembly(name)
	if errors.Is(err, adl.ErrNoSoleAssembly) {
		return nil, fmt.Errorf("%w: -assembly: %w", errUsage, err)
	}
	return asm, err
}

// loadModel resolves -model: an existing file path loads as a document;
// anything else must be a store reference resolved against -store.
// Mistakes in naming the model are usage errors; a model that is found
// but does not load is a model defect.
func loadModel(arg, storeDir string) (*adl.Document, error) {
	if fi, err := os.Stat(arg); err == nil && !fi.IsDir() {
		doc, err := adl.Load(arg)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %w", errModelDefect, arg, err)
		}
		return doc, nil
	}
	// "file.adl@2" — a version pin on something that is a file once the
	// pin is stripped — is a usage mistake, not a missing store ref.
	if at := strings.LastIndexByte(arg, '@'); at > 0 {
		if fi, err := os.Stat(arg[:at]); err == nil && !fi.IsDir() {
			return nil, fmt.Errorf("%w: -model %q: version pins apply only to store refs, not files", errUsage, arg)
		}
	}
	ref, err := store.ParseRef(arg)
	if err != nil {
		return nil, fmt.Errorf("%w: -model %q is neither a readable file nor a store ref: %v", errUsage, arg, err)
	}
	if storeDir == "" {
		return nil, fmt.Errorf("%w: -model %s names a stored model; -store DIR is required", errUsage, ref)
	}
	st, err := store.Open(storeDir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	rec, err := st.Get(ref)
	switch {
	case errors.Is(err, store.ErrNotFound):
		return nil, fmt.Errorf("%w: %v", errUsage, err)
	case errors.Is(err, store.ErrCorrupt):
		return nil, fmt.Errorf("%w: %v", errModelDefect, err)
	case err != nil:
		return nil, err
	}
	doc, err := rec.Document()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errModelDefect, err)
	}
	return doc, nil
}

func parseParams(s string) ([]float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("parameter %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}
