// Command socsim runs the Monte Carlo fault-injection simulator on an
// assembly and compares the estimate with the analytic prediction.
//
// Usage:
//
//	socsim -paper remote -params 1,4096,1 -trials 50000
//	socsim -file system.adl -assembly local -service search -params 1,4096,1
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"socrel/internal/adl"
	"socrel/internal/core"
	"socrel/internal/perf"
	"socrel/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "socsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("socsim", flag.ContinueOnError)
	file := fs.String("file", "", "ADL file (.adl DSL or .json); '-' reads stdin")
	asmName := fs.String("assembly", "", "assembly name within the document")
	service := fs.String("service", "search", "service to simulate")
	paramsArg := fs.String("params", "", "comma-separated actual parameters")
	trials := fs.Int("trials", 20000, "number of simulated invocations")
	seed := fs.Int64("seed", 1, "random seed")
	paper := fs.String("paper", "", "use the built-in paper example: 'local' or 'remote'")
	timed := fs.Bool("time", false, "also report the simulated response-time distribution (canonical cost laws)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	params, err := parseParams(*paramsArg)
	if err != nil {
		return err
	}

	asm, err := adl.LoadAssembly(*file, *asmName, *paper)
	if err != nil {
		return err
	}

	analytic, err := core.New(asm, core.Options{}).Reliability(*service, params...)
	if err != nil {
		return err
	}
	est, err := sim.New(asm, sim.Options{Seed: *seed}).Estimate(*service, *trials, params...)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "service %s(%s)\n", *service, *paramsArg)
	fmt.Fprintf(out, "  analytic reliability : %.6f\n", analytic)
	fmt.Fprintf(out, "  simulated reliability: %.6f  (%d/%d trials)\n",
		est.Reliability, est.Successes, est.Trials)
	fmt.Fprintf(out, "  95%% CI               : [%.6f, %.6f]\n", est.Lo, est.Hi)
	verdict := "analytic prediction INSIDE the confidence interval"
	if !est.Contains(analytic) {
		verdict = "analytic prediction OUTSIDE the confidence interval"
	}
	if _, err := fmt.Fprintf(out, "  %s\n", verdict); err != nil {
		return err
	}
	if !*timed {
		return nil
	}
	prof := perf.New(asm)
	if err := prof.UseCanonicalCosts(asm.ServiceNames()); err != nil {
		return err
	}
	expected, err := prof.ExpectedTime(*service, params...)
	if err != nil {
		return err
	}
	te, err := sim.New(asm, sim.Options{Seed: *seed + 1}).
		EstimateTime(prof, *service, *trials, params...)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  analytic E[T]        : %.6g s\n", expected)
	fmt.Fprintf(out, "  simulated mean       : %.6g s  (%d successful runs)\n", te.Mean, te.Successes)
	_, err = fmt.Fprintf(out, "  P50 / P95 / P99      : %.6g / %.6g / %.6g s\n", te.P50, te.P95, te.P99)
	return err
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
