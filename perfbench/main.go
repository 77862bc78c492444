// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the MultiQueue from a seed, checks that its
// outputs are correct, and prints every metric by name with its unit.
//
//	perfbench --workload hold-1t --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with --trace 1 a separate traced run reports the
// per-layer metrics instead and writes its sampled spans to --spans. The
// line before it is a JSON report with host provenance, every check, and
// the workload's own figures. A failed check exits 1; a usage or set-up
// error exits 2 without printing a result. README.md describes the
// workloads and metrics; run.py builds and runs the command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
)

// endToEndNames are the metrics every workload reports with --trace 0;
// they are the end_to_end entries of BENCHMARK.json.
var endToEndNames = []string{
	"setup_s", "rss_mb", "throughput_mops",
	"latency_p50_us", "latency_p99_us", "rank_mean", "rank_p99",
}

// layerNames are the metrics every workload reports with --trace 1; they
// are the per_layer entries of BENCHMARK.json.
var layerNames = []string{
	"xrand.pair_draw_ns", "xrand.intn_ns",
	"pqueue.pushpop_ns",
	"core.budget.sample_ns", "core.budget.draw_ns", "core.budget.scan_ns",
	"core.budget.lock_ns", "core.budget.heap_ns", "core.budget.stats_ns",
	"core.budget.residual_ns", "core.budget.total_ns",
	"core.insert_ns_p50", "core.insert_ns_p99", "core.delete_ns_p50", "core.delete_ns_p99",
	"core.lock_fail_ratio", "core.empty_scan_ratio",
	"core.rank_mean_2t", "core.rank_max",
	"sched.queue_share", "sched.task_share", "sched.idle_share",
	"sched.empty_pops", "sched.stale", "sched.task_ns",
	"sched.gen_late_p50_us", "sched.gen_late_p99_us", "sched.wait_us_p99", "sched.qlen_mean",
	"jobs.spin_ns_per_unit",
	"runtime.gc_count", "runtime.gc_pause_ms", "host.steal_pct", "trace_overhead_pct",
}

// workload is one named input set.
type benchWorkload struct {
	name string
	run  func(e *env, r *result) error
}

var workloads = []benchWorkload{
	{"hold-1t", func(e *env, r *result) error { return runHold(e, r, hold1t) }},
	{"hold-2t", func(e *env, r *result) error { return runHold(e, r, hold2t) }},
	{"sssp-2t", runSSSP},
	{"serve-1w", runServe},
}

// env is what a workload run is given.
type env struct {
	seed    uint64
	seconds float64
	trace   bool
	// smoke shrinks every input so a run takes a fraction of a second; the
	// tests use it to exercise all workloads and checks.
	smoke bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

type check struct {
	Name      string `json:"name"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Detail    string `json:"detail,omitempty"`
}

// result collects one run's figures.
type result struct {
	attempted, failed int64
	checks            []check
	// endToEnd holds the gated metrics, extra the workload's own end-to-end
	// figures (in the report only), layers the per-layer metrics.
	endToEnd, extra, layers metrics
	details                 map[string]any
	// noise covers the measured phase; occupancy is the mean element count
	// the queue held during it, which sizes the per-layer probes.
	noise     noise
	occupancy int
	// spans are the sampled span logs of a traced run.
	spans []*spanLog
}

func newResult() *result {
	return &result{endToEnd: metrics{}, extra: metrics{}, layers: metrics{}, details: map[string]any{}}
}

// checkUnits records a correctness check over `attempted` units of work of
// which `failed` were wrong.
func (r *result) checkUnits(name string, attempted, failed int64, detail string) {
	r.attempted += attempted
	r.failed += failed
	r.checks = append(r.checks, check{name, attempted, failed, detail})
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny inputs, for tests")
	spans := fs.String("spans", "", "traced runs: span file (default .bench_build/perfbench-spans-<workload>.tsv)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	i := slices.IndexFunc(workloads, func(w benchWorkload) bool { return w.name == *name })
	if i < 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload in %v, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	e := &env{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke}
	r, err := runWorkload(workloads[i], e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 2
	}
	if e.trace {
		path := *spans
		if path == "" {
			path = ".bench_build/perfbench-spans-" + *name + ".tsv"
		}
		if err := writeSpans(path, r.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		r.details["spans_file"] = path
	}
	want, got := endToEndNames, r.endToEnd
	if e.trace {
		want, got = layerNames, r.layers
	}
	for _, m := range want {
		if _, ok := got[m]; !ok {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s missing\n", *name, m)
			return 2
		}
	}
	report := map[string]any{
		"workload":         *name,
		"seed":             *seed,
		"seconds":          *seconds,
		"trace":            *trace,
		"host":             readHost(),
		"noise":            r.noise,
		"checks":           r.checks,
		"failed_ratio":     float64(r.failed) / float64(max(r.attempted, 1)),
		"end_to_end":       r.endToEnd,
		"workload_metrics": r.extra,
		"details":          r.details,
	}
	if e.trace {
		report["per_layer"] = r.layers
	}
	out := json.NewEncoder(stdout)
	if err := out.Encode(map[string]any{"report": report}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	correct := r.failed == 0 && r.attempted > 0
	if err := out.Encode(map[string]any{
		"correct":   correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   got,
	}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if !correct {
		for _, c := range r.checks {
			if c.Failed > 0 {
				fmt.Fprintf(stderr, "perfbench: %s: check %s failed %d of %d: %s\n", *name, c.Name, c.Failed, c.Attempted, c.Detail)
			}
		}
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runWorkload runs the workload, then the parts every workload shares: the
// rank pass, and on traced runs the per-layer probes.
func runWorkload(w benchWorkload, e *env) (*result, error) {
	r := newResult()
	if err := w.run(e, r); err != nil {
		return nil, err
	}
	runtime.GC()
	if err := rankMetrics(e, r); err != nil {
		return nil, err
	}
	if e.trace {
		if err := layerProbes(e, r); err != nil {
			return nil, err
		}
		r.layers.set("runtime.gc_count", r.noise.GCCount, "count")
		r.layers.set("runtime.gc_pause_ms", r.noise.GCPauseMs, "ms")
		r.layers.set("host.steal_pct", r.noise.StealPct, "%")
	}
	return r, nil
}
