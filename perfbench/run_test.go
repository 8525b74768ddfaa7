package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// TestWorkloadsAnswerCorrectly runs every workload briefly, untraced and
// traced, and requires every op to get an Exact answer the oracle
// accepts, and every share among the per-layer metrics to carry its base.
func TestWorkloadsAnswerCorrectly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runEndToEnd(w, 3, 200*time.Millisecond, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced: correct=%v failed %d of %d", res.Correct, res.Failed, res.Attempted)
			}
			for name := range endToEndUnits {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("untraced run lacks %s", name)
				}
			}

			run, err := traceWorkload(w, 3, 400*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []phase{run.base, run.traced} {
				if p.ops == 0 || p.nonExact != 0 || p.wrong != 0 {
					t.Fatalf("traced run: %d ops, %d not Exact, %d wrong", p.ops, p.nonExact, p.wrong)
				}
			}
			for name, unit := range perLayerUnits {
				if _, ok := run.layers.values[name]; !ok {
					t.Errorf("traced run lacks %s", name)
				}
				if _, ok := run.layers.bases[name]; unit == "ratio" && !ok {
					t.Errorf("share %s reports no base", name)
				}
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric names and units the
// benchmark prints in step with those BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind  string
		decls []decl
		units map[string]string
	}{
		{"end_to_end", spec.EndToEnd, endToEndUnits},
		{"per_layer", spec.PerLayer, perLayerUnits},
	} {
		if len(c.decls) != len(c.units) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", c.kind, len(c.decls), len(c.units))
		}
		for _, d := range c.decls {
			if got, ok := c.units[d.Name]; !ok || got != d.Unit {
				t.Errorf("%s metric %s: declared unit %q, printed %q (known %v)", c.kind, d.Name, d.Unit, got, ok)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("declared workload %s is not in the benchmark", w.Name)
		}
	}
}
