package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadiness runs every workload n times, seeds 1..n, each in a fresh
// process of this binary, and prints per workload and end-to-end metric
// the median, the quartiles and the spread (Q3 - Q1 over the median).
// When BENCHMARK.json is in the working directory each spread is also
// shown as a share of the metric's bound, so a metric that sits near its
// bound is seen before a change is judged against it.
func steadiness(n int, seconds float64, out, errOut io.Writer) error {
	bounds := readBounds("BENCHMARK.json")
	self, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "steadiness: %d runs per workload, %g s each\n", n, seconds)
	fmt.Fprintf(out, "%-13s %-17s %12s %12s %12s %8s %9s\n", "workload", "metric", "q1", "median", "q3", "spread", "of bound")
	for _, w := range workloads {
		values := map[string][]float64{}
		runs := map[string][]string{} // per-seed values, in seed order
		for seed := 1; seed <= n; seed++ {
			res, err := runChild(self, w.name, seed, seconds, errOut)
			if err != nil {
				return err
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d of %d ops failed (correct=%v)", w.name, seed, res.Failed, res.Attempted, res.Correct)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
				runs[name] = append(runs[name], strconv.FormatFloat(m.Value, 'g', 4, 64))
			}
		}
		names := make([]string, 0, len(values))
		for name := range values {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			q1, med, q3 := quartiles(values[name])
			spread := ratio{q3 - q1, med}
			ofBound := "-"
			if b, ok := bounds[name]; ok && b > 0 {
				ofBound = strconv.FormatFloat(spread.Value()/b, 'f', 2, 64)
			}
			fmt.Fprintf(out, "%-13s %-17s %12.6g %12.6g %12.6g %8.4f %9s  runs %v\n", w.name, name, q1, med, q3, spread.Value(), ofBound, runs[name])
		}
	}
	return nil
}

// runChild runs one untraced measurement in a child process and parses
// the result from its last line of output.
func runChild(self, workload string, seed int, seconds float64, errOut io.Writer) (result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = errOut
	stdout, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return res, nil
}

// readBounds reads each end-to-end metric's bound from BENCHMARK.json;
// a missing or unreadable file yields no bounds.
func readBounds(path string) map[string]float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(data, &spec) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
