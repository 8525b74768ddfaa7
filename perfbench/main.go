// Command perfbench is socrel's end-to-end benchmark. It builds the
// serving state of one workload in-process from inputs generated from a
// seed, drives it with one closed-loop client for a fixed time, checks
// every answer against an oracle, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics of a traced run) as one
// JSON object on the last line of standard output.
//
// Run it from the root of a socrel checkout:
//
//	bash perfbench/run.sh --workload fleet-point --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload tenant-churn --seed 1 --seconds 10 --trace 1
//	bash perfbench/run.sh --steadiness 5 --seconds 10
//
// NOTES.md in this directory maps each metric to its layer and
// workload and records the measurements the design rests on.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// instance is one workload's built serving state plus its client. The
// runner calls prepare, do and finish once per op; only do is timed.
type instance interface {
	// prepare draws the next op's inputs.
	prepare()
	// do runs one op and reports whether every answer it got was Exact.
	do(ctx context.Context) bool
	// finish runs after the op's timer stopped (inline oracle checks).
	finish()
	// startLog marks the start of the measured interval: answers logged
	// so far are dropped and layer counters are snapshotted.
	startLog()
	// verify checks every Exact answer logged since startLog against
	// the oracle and returns how many ops got a wrong answer.
	verify() (wrong int, err error)
	// layers returns the workload's per-layer metrics for a traced run
	// of ops measured ops.
	layers(ops int) layerSet
	close()
}

// workload builds instances. A non-nil tracer asks for a traced build.
type workload struct {
	name  string
	build func(seed int64, tr *tracer) (instance, error)
}

var workloads = []workload{
	{"fleet-point", buildFleet},
	{"whatif-batch", buildBatch},
	{"tenant-churn", buildChurn},
	{"drift-adapt", buildDrift},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Units of the end-to-end and per-layer metrics, as BENCHMARK.json
// declares them.
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"throughput_ops_s": "ops/s",
	"latency_p50_ms":   "ms",
	"latency_p90_ms":   "ms",
	"ok_ratio":         "ratio",
	"heap_live_mb":     "MB",
}

var perLayerUnits = map[string]string{
	"server.self_us":                 "us",
	"server.eval_calls_per_op":       "count",
	"server.hedge_ratio":             "ratio",
	"server.hedge_win_ratio":         "ratio",
	"server.shed_ratio":              "ratio",
	"cluster.forward_ratio":          "ratio",
	"cluster.forward_extra_us":       "us",
	"cluster.gossip_round_us":        "us",
	"core.eval_us":                   "us",
	"core.memo_hit_ratio":            "ratio",
	"core.parametric_fallback_ratio": "ratio",
	"core.batch_point_ns":            "ns",
	"core.allocs_per_point":          "count",
	"core.compile_ms":                "ms",
	"store.load_hit_us":              "us",
	"store.load_miss_ms":             "ms",
	"store.hit_ratio":                "ratio",
	"store.publish_us":               "us",
	"estimate.observe_us":            "us",
	"estimate.obs_to_drift":          "count",
	"runtime.repredict_ms":           "ms",
	"go.alloc_bytes_per_op":          "B",
	"go.gc_per_kop":                  "count",
	"trace.overhead_ratio":           "ratio",
}

// The program under test runs on one P. On a small VM shared with other
// tenants, the second vCPU is taken away for milliseconds at a time, and
// every op that waits on a goroutine running there (the batch kernel's
// workers, the server's evaluation goroutine) stalls with it. With two
// Ps, whatif-batch measured 3.5k-5.0k ops/s in three runs of one minute
// against 6.7k-7.1k with one; the other workloads were within a few
// percent either way. One closed-loop client keeps a single P busy
// anyway: the client waits while the server works.
//
// What this leaves unmeasured: PfailBatchCtx sizes its workers by
// GOMAXPROCS, so whatif-batch always takes the serial path and never the
// multi-worker fan-out; the server limiter's default sizing (Initial =
// GOMAXPROCS, Max = 4 x GOMAXPROCS) is the one-P sizing; and a hedged
// evaluation cannot run beside its primary.
const procs = 1

func main() {
	runtime.GOMAXPROCS(procs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fleet-point, whatif-batch, tenant-churn or drift-adapt")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	steady := fs.Int("steadiness", 0, "run every workload this many times (seeds 1..N) and report each end-to-end metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	if *steady > 0 {
		if err := steadiness(*steady, *seconds, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, dur, stdout)
	} else {
		res, err = runEndToEnd(w, *seed, dur, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// windows is how many equal slices of wall time a measured interval is
// cut into. Each timing metric is taken per window and the median over
// windows is reported: the host is shared, and a neighbour's burst that
// slows a few windows then moves the result by one rank, not by its
// whole weight. An untraced run also times one cold build after each
// window, so set-up time is a median over the same span.
const windows = 20

// window is one slice of a measured interval.
type window struct {
	ops, nonExact int
	busy          time.Duration // summed op time
	latMS         []float64
}

func (w window) throughput() float64 { return float64(w.ops) / w.busy.Seconds() }

// phase is what one measured interval produced.
type phase struct {
	ops, nonExact, wrong int
	heapMB               float64 // live heap after heapOps ops
	windows              []window
}

// perWindow is the median over windows of f; f may sort latMS.
func (p phase) perWindow(f func(window) float64) float64 {
	vs := make([]float64, len(p.windows))
	for i, w := range p.windows {
		vs[i] = f(w)
	}
	return median(vs)
}

func (p phase) throughput() float64 { return p.perWindow(window.throughput) }

// percentile is the median over windows of each window's nearest-rank
// p-th percentile, with the smallest per-window sample count and the
// fewest samples any window had above its percentile.
func (p phase) percentile(q float64) (value float64, minN, minAbove int) {
	minN, minAbove = p.ops, p.ops
	value = p.perWindow(func(w window) float64 {
		r := nearestRank(w.latMS, q)
		minN, minAbove = min(minN, r.N), min(minAbove, r.Above)
		return r.Value
	})
	return value, minN, minAbove
}

// medianOp is the median op latency over the whole interval, in ms.
func (p phase) medianOp() float64 {
	var all []float64
	for _, w := range p.windows {
		all = append(all, w.latMS...)
	}
	return median(all)
}

// coldBuild builds the workload once from cold, after a forced GC, and
// returns the instance with the build's time in seconds.
func coldBuild(w workload, seed int64, tr *tracer) (instance, float64, error) {
	runtime.GC()
	start := time.Now()
	inst, err := w.build(seed, tr)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: build: %w", w.name, err)
	}
	return inst, time.Since(start).Seconds(), nil
}

// liveHeapMB is the live heap after forced GCs, in MB. Two cycles:
// objects parked in a sync.Pool survive the first one in its victim
// cache.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// drive runs ops on inst until dur of wall time has passed and at least
// minOps ops ran. Only each op's do call is timed; input generation and
// inline oracle checks are not.
func drive(inst instance, dur time.Duration, minOps int) window {
	ctx := context.Background()
	var w window
	end := time.Now().Add(dur)
	for w.ops < minOps || time.Now().Before(end) {
		inst.prepare()
		t0 := time.Now()
		ok := inst.do(ctx)
		d := time.Since(t0)
		inst.finish()
		w.ops++
		w.busy += d
		w.latMS = append(w.latMS, float64(d)/1e6)
		if !ok {
			w.nonExact++
		}
	}
	return w
}

// heapOps is how many ops run before the live heap is read: enough to
// fill the workload's caches, memos and bounded stores. A fixed count,
// not a time, because the program keeps state that grows or wraps with
// the number of ops served (stored versions, the server's stale store),
// and the heap must not depend on the host's speed.
const heapOps = 2048

// measure runs heapOps ops on inst and reads the live heap, then warms
// up for a share of dur, runs the measured interval as windows equal
// slices and checks the interval's answers. onStart runs just before
// the interval; between, when not nil, runs after each window, outside
// every op's timing.
func measure(inst instance, dur time.Duration, onStart func(), between func() error) (phase, error) {
	drive(inst, 0, heapOps)
	inst.startLog() // the benchmark's answer log is not the program's heap
	p := phase{heapMB: liveHeapMB()}
	drive(inst, warmup(dur), 1)
	inst.startLog()
	if onStart != nil {
		onStart()
	}
	for i := 0; i < windows; i++ {
		w := drive(inst, dur/windows, 1)
		p.windows = append(p.windows, w)
		p.ops += w.ops
		p.nonExact += w.nonExact
		if between != nil {
			if err := between(); err != nil {
				return p, err
			}
		}
	}
	wrong, err := inst.verify()
	p.wrong = wrong
	return p, err
}

// warmup lets caches fill and lazy set-up finish before timing.
func warmup(dur time.Duration) time.Duration { return max(dur/10, 300*time.Millisecond) }

// runEndToEnd is the untraced run. Set-up time is the median of one cold
// build after each window: the builds then sample the whole run, as the
// other timing metrics do, and not one moment of a shared host. The
// served instance's own build is the process's first and is not a
// sample.
func runEndToEnd(w workload, seed int64, dur time.Duration, out io.Writer) (result, error) {
	inst, err := w.build(seed, nil)
	if err != nil {
		return result{}, fmt.Errorf("%s: build: %w", w.name, err)
	}
	var times []float64
	p, err := measure(inst, dur, nil, func() error {
		cold, t, err := coldBuild(w, seed, nil)
		if err != nil {
			return err
		}
		cold.close()
		times = append(times, t)
		return nil
	})
	inst.close()
	if err != nil {
		return result{}, err
	}
	setup := median(times)

	p50, n50, above50 := p.percentile(50)
	p90, n90, above90 := p.percentile(90)
	failed := p.nonExact + p.wrong
	ok := ratio{float64(p.ops - failed), float64(p.ops)}
	m := map[string]float64{
		"setup_s":          setup,
		"throughput_ops_s": p.throughput(),
		"latency_p50_ms":   p50,
		"latency_p90_ms":   p90,
		"ok_ratio":         ok.Value(),
		"heap_live_mb":     p.heapMB,
	}
	fmt.Fprintf(out, "workload %s seed %d: %d ops in %d windows of %.3f s (one closed-loop client)\n",
		w.name, seed, p.ops, len(p.windows), dur.Seconds()/windows)
	fmt.Fprintf(out, "  setup_s          %.6f s (median of %d cold builds, one after each window)\n", setup, len(times))
	fmt.Fprintf(out, "  throughput_ops_s %.2f ops/s (median over windows of ops per second of op time)\n", m["throughput_ops_s"])
	fmt.Fprintf(out, "  latency_p50_ms   %.6f ms (median over windows; each window n>=%d, >=%d above)\n", p50, n50, above50)
	fmt.Fprintf(out, "  latency_p90_ms   %.6f ms (median over windows; each window n>=%d, >=%d above)\n", p90, n90, above90)
	fmt.Fprintf(out, "  ok_ratio         %s; %d not Exact, %d wrong\n", ok, p.nonExact, p.wrong)
	fmt.Fprintf(out, "  heap_live_mb     %.3f MB (after %d ops)\n", p.heapMB, heapOps)
	return result{
		Correct:   p.wrong == 0,
		Attempted: p.ops,
		Failed:    failed,
		Metrics:   withUnits(m, endToEndUnits),
	}, nil
}

// tracedRun is what a traced run measured: an untraced half, a traced
// half, and the per-layer metrics of the traced half.
type tracedRun struct {
	base, traced phase
	layers       layerSet
}

// traceWorkload measures the workload twice, each for half the time:
// first untraced, then with every layer call wrapped in spans. The
// per-layer metrics come from the second half; the ratio of the two
// throughputs is the tracing overhead.
func traceWorkload(w workload, seed int64, dur time.Duration) (tracedRun, error) {
	half := dur / 2
	plain, err := w.build(seed, nil)
	if err != nil {
		return tracedRun{}, fmt.Errorf("%s: build: %w", w.name, err)
	}
	base, err := measure(plain, half, nil, nil)
	plain.close()
	if err != nil {
		return tracedRun{}, err
	}

	// Five traced builds give core.compile_ms several set-up compiles;
	// the last one is measured.
	tr := newTracer()
	var inst instance
	for i := 0; i < 5; i++ {
		if inst != nil {
			inst.close()
		}
		if inst, _, err = coldBuild(w, seed, tr); err != nil {
			return tracedRun{}, err
		}
	}
	defer inst.close()
	var mem *memDelta
	p, err := measure(inst, half, func() {
		tr.reset("core.compile_ms")
		mem = startMem()
	}, nil)
	if err != nil {
		return tracedRun{}, err
	}
	allocBytes, gcs := mem.end()

	ls := inst.layers(p.ops)
	for name, unit := range perLayerUnits {
		if _, ok := ls.values[name]; ok {
			continue
		}
		// A layer this workload bypasses reads 0; a bypassed share
		// reads 0 over an empty base.
		if unit == "ratio" {
			ls.share(name, ratio{})
		} else {
			ls.put(name, 0)
		}
	}
	ls.put("go.alloc_bytes_per_op", allocBytes/float64(p.ops))
	ls.put("go.gc_per_kop", gcs/float64(p.ops)*1000)
	ls.share("trace.overhead_ratio", ratio{p.throughput(), base.throughput()})
	return tracedRun{base: base, traced: p, layers: ls}, nil
}

// runTraced prints a traced run's per-layer metrics, each share with its
// base, and whether the workload stresses the layer it exists for.
func runTraced(w workload, seed int64, dur time.Duration, out io.Writer) (result, error) {
	run, err := traceWorkload(w, seed, dur)
	if err != nil {
		return result{}, err
	}
	base, p, ls := run.base, run.traced, run.layers
	fmt.Fprintf(out, "workload %s seed %d traced: %d ops (untraced half: %d ops)\n", w.name, seed, p.ops, base.ops)
	names := make([]string, 0, len(ls.values))
	for name := range ls.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		line := fmt.Sprintf("  %-31s %14.6f %s", name, ls.values[name], perLayerUnits[name])
		if r, ok := ls.bases[name]; ok {
			line += fmt.Sprintf("  = %g of %g", r.Num, r.Den)
		}
		fmt.Fprintln(out, line)
	}
	stressChecks(w.name, ls.values, p.medianOp(), out)

	return result{
		Correct:   base.wrong == 0 && p.wrong == 0,
		Attempted: base.ops + p.ops,
		Failed:    base.nonExact + base.wrong + p.nonExact + p.wrong,
		Metrics:   withUnits(ls.values, perLayerUnits),
	}, nil
}

// stressChecks prints whether the workload loads the layer it exists to
// stress, against the traced median op.
func stressChecks(name string, m map[string]float64, opMS float64, out io.Writer) {
	var claim string
	var share float64
	switch name {
	case "fleet-point":
		claim, share = "core.eval_us under 10% of the median op", m["core.eval_us"]/1e3/opMS
		report(out, claim, share, share < 0.10)
	case "tenant-churn":
		claim = "store.load_hit_us + store.load_miss_ms over half of the median op"
		share = (m["store.load_hit_us"]/1e3 + m["store.load_miss_ms"]) / opMS
		report(out, claim, share, share > 0.5)
	case "whatif-batch":
		claim, share = "core.batch_point_ns x 256 over half of the median op", m["core.batch_point_ns"]*batchPoints/1e6/opMS
		report(out, claim, share, share > 0.5)
	case "drift-adapt":
		claim, share = "runtime.repredict_ms share of the median op", m["runtime.repredict_ms"]/opMS
		fmt.Fprintf(out, "  stress: %s: %.3f\n", claim, share)
	}
}

func report(out io.Writer, claim string, share float64, ok bool) {
	verdict := "holds"
	if !ok {
		verdict = "DOES NOT HOLD"
	}
	fmt.Fprintf(out, "  stress: %s: share %.3f of the median op, %s\n", claim, share, verdict)
}

func withUnits(values map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(values))
	for name, v := range values {
		out[name] = metric{Value: v, Unit: units[name]}
	}
	return out
}
