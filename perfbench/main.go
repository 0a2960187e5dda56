// Command perfbench is the repository benchmark. It drives one of four
// workloads in-process through the simulator's public layer functions,
// checks the simulated output, and prints its metrics:
//
//	bash perfbench/run.sh --workload paper-pair --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the last stdout line is a JSON object holding the
// end-to-end metrics; with --trace 1 it holds the per-layer metrics, taken
// from spans the benchmark records around its calls, a CPU profile grouped
// by package, runtime/metrics deltas and the simulated per-component
// counters of the dcl1.WithMetrics sink. The lines before it name the host,
// the per-workload results digest and every metric with its unit.
//
// run.sh builds the binary from the checkout and runs it; `go test` in this
// directory runs every workload at minimum size through the same gates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"paper-pair":     paperPair,
	"quick-suite":    quickSuite,
	"trace-drain":    traceDrain,
	"serve-resubmit": serveResubmit,
}

// endToEnd and perLayer are the metric names and units printed with
// --trace 0 and --trace 1; BENCHMARK.json lists the same (checked by
// TestMetricTablesMatchBenchmarkJSON). Each per-layer metric names the
// end-to-end metric and workload it should move.
//
// A run repeats its workload's round until --seconds is spent. The
// end-to-end metrics are host measurements. wall_s and cpu_s (user plus
// system) are medians over rounds. mem_peak_mb is the median over rounds of
// the most memory the Go runtime held from the OS during the round; each
// round starts after a collection that returns free pages to the OS, so
// garbage left between rounds is not counted. setup_s is the
// median set-up before the first simulated edge (system builds, trace
// capture and codec, daemon start and store replay), repeated several times
// per run. ns_per_sim_cycle is host wall time of the simulate phases per
// simulated core cycle: the RunChecked calls on paper-pair and trace-drain,
// the RunExperiment calls over their fresh points on quick-suite, and the
// fresh jobs, the only ones that simulate, on serve-resubmit. A job is one
// POSTed sweep on serve-resubmit and one round elsewhere. On serve-resubmit
// job_p50_ms and jobs_per_s are taken per round of 1000 jobs and reported
// as medians over rounds, like wall_s, so a few seconds of host contention
// move one round, not the run.
//
// job_p99_ms, the 99th percentile when ten jobs lie beyond it (else the
// highest percentile that keeps ten beyond it, never below the median), is
// a per-layer metric taken from the untraced rounds of a traced run: on a
// shared 2-vCPU host a contention episode doubles it while job_p50_ms moves
// by a third, so across runs it spreads beyond the largest bound an
// end-to-end metric may have.
var endToEnd = []metricDef{
	{"wall_s", "s", ""},
	{"cpu_s", "s", ""},
	{"setup_s", "s", ""},
	{"ns_per_sim_cycle", "ns", ""},
	{"mem_peak_mb", "MB", ""},
	{"job_p50_ms", "ms", ""},
	{"jobs_per_s", "1/s", ""},
}

var perLayer = append([]metricDef{
	{"error_rate", "ratio", "correct, on every workload"},
	{"tracing.overhead_ratio", "ratio", "none: traced against untraced rounds of this run"},
	{"job_p99_ms", "ms", "job_p50_ms and jobs_per_s on serve-resubmit; not bounded, as host contention doubles it"},
	{"gpu.build_s", "s", "setup_s on paper-pair and trace-drain"},
	{"gpu.build_cpu_share", "ratio", "wall_s on quick-suite"},
	{"gpu.run_s", "s", "ns_per_sim_cycle on paper-pair"},
	{"gpu.ns_per_instruction", "ns", "ns_per_sim_cycle on paper-pair"},
	{"workload.capture_s", "s", "setup_s on trace-drain"},
	{"trace.encode_s", "s", "setup_s on trace-drain"},
	{"trace.decode_s", "s", "setup_s on trace-drain"},
	{"trace.bytes", "B", "setup_s on trace-drain"},
	{"experiments.run_s", "s", "wall_s and cpu_s on quick-suite"},
	{"experiments.points_fresh", "count", "wall_s and cpu_s on quick-suite"},
	{"experiments.parallel_efficiency", "ratio", "wall_s and cpu_s on quick-suite"},
	{"serve.store_open_s", "s", "setup_s on serve-resubmit"},
	{"serve.submit_ms", "ms", "job_p50_ms and jobs_per_s on serve-resubmit"},
	{"serve.stream_ms", "ms", "job_p50_ms and jobs_per_s on serve-resubmit"},
	{"serve.store_hit_ratio", "ratio", "job_p50_ms and jobs_per_s on serve-resubmit"},
	{"serve.fresh_points", "count", "jobs_per_s and ns_per_sim_cycle on serve-resubmit"},
	{"core.cpu_share", "ratio", "ns_per_sim_cycle on paper-pair (small on serve-resubmit)"},
	{"cache.cpu_share", "ratio", "ns_per_sim_cycle on paper-pair (small on serve-resubmit)"},
	{"dcl1.cpu_share", "ratio", "ns_per_sim_cycle on paper-pair (small on serve-resubmit)"},
	{"noc.cpu_share", "ratio", "ns_per_sim_cycle on paper-pair (small on serve-resubmit)"},
	{"dram.cpu_share", "ratio", "ns_per_sim_cycle on paper-pair (small on serve-resubmit)"},
	{"gpu.cpu_share", "ratio", "ns_per_sim_cycle on paper-pair (small on serve-resubmit)"},
	{"mem.cpu_share", "ratio", "ns_per_sim_cycle on paper-pair (small on serve-resubmit)"},
	{"sim.cpu_share", "ratio", "ns_per_sim_cycle on trace-drain and paper-pair"},
	{"metrics.cpu_share", "ratio", "job_p50_ms on serve-resubmit"},
	{"serve.cpu_share", "ratio", "job_p50_ms on serve-resubmit"},
	{"runtime.other_cpu_share", "ratio", "job_p50_ms on serve-resubmit"},
	{"sim.ns_per_cycle.busy", "ns", "ns_per_sim_cycle on trace-drain and paper-pair"},
	{"sim.ns_per_cycle.idle", "ns", "ns_per_sim_cycle on trace-drain"},
	{"mem.alloc_bytes_per_sim_cycle", "B", "cpu_s and ns_per_sim_cycle on paper-pair, cpu_s on quick-suite"},
	{"mem.mallocs_per_sim_cycle", "count", "cpu_s and ns_per_sim_cycle on paper-pair, cpu_s on quick-suite"},
	{"runtime.gc_cycles", "count", "cpu_s and ns_per_sim_cycle on paper-pair, cpu_s on quick-suite"},
	{"runtime.gc_cpu_share", "ratio", "cpu_s and ns_per_sim_cycle on paper-pair, cpu_s on quick-suite"},
}, simCounterDefs()...)

type metricDef struct{ name, unit, moves string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; every generated input derives from it")
	seconds := fs.Float64("seconds", 10, "measurement time; whole rounds run until it is spent")
	traced := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	small := fs.Bool("small", false, "minimum-size inputs (self-test)")
	out := fs.String("out", ".bench_build/perfbench", "directory for the traced run's spans and profiles and serve state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	b := &bench{
		name:   *name,
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		traced: *traced == 1,
		small:  *small,
		outDir: *out,
		log:    stdout,
		layer:  map[string]float64{},
		ref:    map[string]string{},
	}
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b.start = time.Now()
	b.mem = startMemSampler()
	defer b.mem.stop()
	if err := drive(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", b.name, err)
		return 1
	}
	res, err := b.finish()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", b.name, err)
		return 1
	}
	for _, f := range b.failures {
		fmt.Fprintf(stdout, "FAIL %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
