package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// bench is one benchmark process: the run's options, the rounds it
// measured, the correctness ledger and, in a traced run, the spans,
// profiles and per-layer values the workload recorded.
type bench struct {
	name   string
	seed   uint64
	budget time.Duration
	traced bool
	small  bool
	outDir string
	log    io.Writer

	start   time.Time
	workers int // effective point-level workers (1 = serial)
	shards  int // effective shards per simulation (1 = serial engine)

	done      []*round
	setups    []time.Duration // one sample per set-up the workload repeated
	attempted int
	failed    int
	failures  []string

	ref    map[string]string // unit key → digest of its first output
	round0 hash.Hash         // round 0's outputs in order: the workload digest

	spans    []span
	open     []int // stack of open span indices
	profiles [][]cpuSample
	layer    map[string]float64 // per-layer values the workload set directly
	mem      *memSampler
}

// round is one repetition of a workload's unit of work.
type round struct {
	index  int
	traced bool // spans, CPU profile and the metrics sink are on

	wall, cpu time.Duration
	simWall   time.Duration   // host time of the simulate phases
	simCycles int64           // simulated core cycles in those phases
	rt        rtDelta         // runtime/metrics deltas over the simulate phases
	jobs      []time.Duration // job latencies; nil when the round is the job
	memPeak   uint64          // peak memory the runtime held during the round
	sink      simSink
}

// fail records one failed unit (a point, table or job that errored or broke
// a correctness gate).
func (b *bench) fail(format string, args ...interface{}) {
	b.failed++
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

// rounds repeats f until the measurement budget is spent. A round starts
// only while one of the median length seen so far still fits; at least one
// round runs, two in a traced run, where even rounds run untraced to
// measure the tracing overhead and odd rounds run traced. setup, when not
// nil, runs before each round outside its timing, so a workload's set-up
// samples spread over the run.
func (b *bench) rounds(setup func() error, f func(r *round) error) error {
	loopStart := time.Now()
	minRounds := 1
	if b.traced {
		minRounds = 2
	}
	for i := 0; ; i++ {
		if i >= minRounds && time.Since(loopStart)+b.medianRound() > b.budget {
			return nil
		}
		if setup != nil {
			if err := setup(); err != nil {
				return err
			}
		}
		r := &round{index: i, traced: b.traced && i%2 == 1}
		// The previous round's garbage is not this round's work, and every
		// round starts with the heap's free pages returned to the OS.
		debug.FreeOSMemory()
		b.mem.reset()
		var prof bytes.Buffer
		if r.traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return fmt.Errorf("start CPU profile: %w", err)
			}
		}
		cpu0, t0 := cpuTime(), time.Now()
		end := b.span(r, b.name+".round")
		err := f(r)
		end()
		r.wall, r.cpu = time.Since(t0), cpuTime()-cpu0
		r.memPeak = b.mem.read()
		if r.traced {
			pprof.StopCPUProfile()
			p, perr := parseProfile(prof.Bytes())
			if perr != nil {
				return perr
			}
			b.profiles = append(b.profiles, p)
			if werr := os.WriteFile(b.outPath(fmt.Sprintf("round%d.pprof", i)), prof.Bytes(), 0o644); werr != nil {
				return werr
			}
		}
		if err != nil {
			return err
		}
		b.done = append(b.done, r)
	}
}

func (b *bench) medianRound() time.Duration {
	var ws []float64
	for _, r := range b.done {
		ws = append(ws, float64(r.wall))
	}
	return time.Duration(median(ws))
}

// simulate runs one simulate phase of round r, adding its host time,
// simulated cycles (returned by f) and runtime/metrics deltas to the round.
func (r *round) simulate(f func() (cycles int64, err error)) error {
	before := readRuntime()
	t0 := time.Now()
	cycles, err := f()
	r.simWall += time.Since(t0)
	r.simCycles += cycles
	r.rt.add(before, readRuntime())
	return err
}

// record hashes one unit's output (its bytes, or else its JSON) into the
// workload digest and checks it against the first output recorded under
// the same key: the same code and seed must reproduce it exactly. A fresh
// unit (empty key) differs from run to run by design and is checked by its
// workload. Only round 0 enters the workload digest, since the number of
// rounds depends on the host. It reports whether the output repeated.
func (b *bench) record(r *round, key string, out interface{}) bool {
	data, ok := out.([]byte)
	if !ok {
		var err error
		if data, err = json.Marshal(out); err != nil {
			b.fail("%s: encode output: %v", key, err)
			return false
		}
	}
	sum := sha256.Sum256(data)
	if r.index == 0 {
		if b.round0 == nil {
			b.round0 = sha256.New()
		}
		b.round0.Write(sum[:])
	}
	if key == "" {
		return true
	}
	d := hex.EncodeToString(sum[:])
	if ref, seen := b.ref[key]; seen && ref != d {
		b.fail("%s: round %d output differs from its first output with the same code and seed", key, r.index)
		return false
	}
	b.ref[key] = d
	return true
}

// digest is the workload's results digest: round 0's outputs in order,
// which the same code and seed reproduce exactly.
func (b *bench) digest() string {
	if b.round0 == nil {
		return "none"
	}
	return hex.EncodeToString(b.round0.Sum(nil))[:16]
}

// finish prints the host ledger, the digest and every metric, and returns
// the result line.
func (b *bench) finish() (result, error) {
	ledger := b.ledger()
	lj, _ := json.Marshal(ledger)
	fmt.Fprintf(b.log, "host %s\n", lj)
	fmt.Fprintf(b.log, "digest %s seed=%d %s\n", b.name, b.seed, b.digest())
	errRate := 0.0
	if b.attempted > 0 {
		errRate = float64(b.failed) / float64(b.attempted)
	}
	fmt.Fprintf(b.log, "error_rate %.6g ratio (%d failed of %d attempted)\n", errRate, b.failed, b.attempted)

	values, desc := b.endToEnd(b.done)
	fmt.Fprintln(b.log, desc)
	defs := endToEnd
	if b.traced {
		values = b.perLayer(errRate)
		defs = perLayer
		if err := b.writeSpans(ledger); err != nil {
			return result{}, err
		}
	}
	res := result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // not measured on this workload
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(b.log, "metric %-34s %14.6g %-6s %s\n", d.name, v, d.unit, d.moves)
	}
	if res.Attempted == 0 {
		return result{}, fmt.Errorf("no unit of work ran")
	}
	return res, nil
}

// endToEnd computes the timed-run metrics over rounds rs and describes
// them in one line. Where a round holds many jobs, the job percentiles and
// rate are per round, then the median over rounds; where the round is the
// job, they are over rounds.
func (b *bench) endToEnd(rs []*round) (map[string]float64, string) {
	var walls, cpus, nsPerCycle, mem, rounds, p50s, tails, rates []float64
	var total time.Duration
	jobs := 0
	for _, r := range rs {
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		mem = append(mem, float64(r.memPeak)/1e6)
		if r.simCycles > 0 {
			nsPerCycle = append(nsPerCycle, float64(r.simWall.Nanoseconds())/float64(r.simCycles))
		}
		total += r.wall
		if r.jobs == nil {
			rounds = append(rounds, r.wall.Seconds()*1e3) // the round is the job
			jobs++
			continue
		}
		var ms []float64
		for _, j := range r.jobs {
			ms = append(ms, j.Seconds()*1e3)
		}
		p50s = append(p50s, quantile(ms, 0.5))
		tails = append(tails, quantile(ms, tailQuantile(len(ms))))
		rates = append(rates, float64(len(ms))/r.wall.Seconds())
		jobs += len(ms)
	}
	var setups []float64
	for _, s := range b.setups {
		setups = append(setups, s.Seconds())
	}
	v := map[string]float64{
		"wall_s":           median(walls),
		"cpu_s":            median(cpus),
		"setup_s":          median(setups),
		"ns_per_sim_cycle": median(nsPerCycle),
		"mem_peak_mb":      median(mem),
	}
	desc := fmt.Sprintf("rounds %d, wall_s each %.4g; jobs %d", len(rs), walls, jobs)
	if len(p50s) > 0 {
		v["job_p50_ms"], v["job_p99_ms"], v["jobs_per_s"] = median(p50s), median(tails), median(rates)
		return v, desc + fmt.Sprintf(", job_p99_ms is the median of the rounds' p%.4g", tailQuantile(jobs/len(p50s))*100)
	}
	q := tailQuantile(len(rounds))
	v["job_p50_ms"], v["job_p99_ms"] = quantile(rounds, 0.5), quantile(rounds, q)
	v["jobs_per_s"] = float64(jobs) / total.Seconds()
	return v, desc + fmt.Sprintf(", job_p99_ms is their p%.4g", q*100)
}

// perLayer computes the traced-run metrics. Spans, profiles and sink
// windows come from the traced rounds, runtime/metrics deltas from the
// untraced ones, so the sink's and the profiler's allocations stay out;
// job_p99_ms comes from the untraced rounds too.
func (b *bench) perLayer(errRate float64) map[string]float64 {
	v := map[string]float64{"error_rate": errRate}
	for k, x := range b.layer {
		v[k] = x
	}
	var plain, traced []float64
	var plainRounds []*round
	var sink simSink
	var rt rtDelta
	var simCycles int64
	for _, r := range b.done {
		if r.traced {
			traced = append(traced, r.wall.Seconds())
			sink.merge(&r.sink)
			continue
		}
		plain = append(plain, r.wall.Seconds())
		plainRounds = append(plainRounds, r)
		rt.merge(r.rt)
		simCycles += r.simCycles
	}
	v["tracing.overhead_ratio"] = median(traced)/median(plain) - 1
	untraced, _ := b.endToEnd(plainRounds)
	v["job_p99_ms"] = untraced["job_p99_ms"]

	for _, m := range []struct {
		span, metric string
		perCall      bool // median of single calls, else of per-round totals
		scale        float64
	}{
		{"gpu.build", "gpu.build_s", true, 1},
		{"gpu.run", "gpu.run_s", false, 1},
		{"workload.capture", "workload.capture_s", false, 1},
		{"trace.encode", "trace.encode_s", false, 1},
		{"trace.decode", "trace.decode_s", false, 1},
		{"experiments.run", "experiments.run_s", false, 1},
		{"serve.open", "serve.store_open_s", true, 1},
		{"serve.submit", "serve.submit_ms", true, 1e3},
		{"serve.stream", "serve.stream_ms", true, 1e3},
	} {
		xs := b.spanRoundTotals(m.span)
		if m.perCall {
			xs = b.spanDurations(m.span)
		}
		if len(xs) > 0 {
			v[m.metric] = median(xs) * m.scale
		}
	}
	if sink.instructions > 0 {
		var runNs float64
		for _, d := range b.spanDurations("gpu.run") {
			runNs += d * 1e9
		}
		v["gpu.ns_per_instruction"] = runNs / float64(sink.instructions)
	}
	if sink.busyCycles > 0 {
		v["sim.ns_per_cycle.busy"] = sink.busyNs / float64(sink.busyCycles)
	}
	if sink.idleCycles > 0 {
		v["sim.ns_per_cycle.idle"] = sink.idleNs / float64(sink.idleCycles)
	}
	if simCycles > 0 {
		v["mem.alloc_bytes_per_sim_cycle"] = rt.allocBytes / float64(simCycles)
		v["mem.mallocs_per_sim_cycle"] = rt.mallocs / float64(simCycles)
	}
	v["runtime.gc_cycles"] = rt.gcCycles / float64(len(plain))
	if rt.cpu > 0 {
		v["runtime.gc_cpu_share"] = rt.gcCPU / rt.cpu
	}
	for k, x := range cpuShares(b.profiles) {
		v[k] = x
	}
	return v
}

// ledger records the host and the effective parallelism of the run.
func (b *bench) ledger() map[string]interface{} {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]interface{}{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit,
		"workload":   b.name,
		"seed":       b.seed,
		"seconds":    b.budget.Seconds(),
		"traced":     b.traced,
		"small":      b.small,
		"workers":    b.workers,
		"shards":     b.shards,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (b *bench) outPath(suffix string) string {
	return filepath.Join(b.outDir, fmt.Sprintf("%s-seed%d-%s", b.name, b.seed, suffix))
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSample is one read of the runtime/metrics the benchmark reports.
type rtSample struct {
	allocBytes, mallocs, gcCycles uint64
	gcCPU, cpu                    float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: u(0), mallocs: u(1), gcCycles: u(2), gcCPU: f(3), cpu: f(4)}
}

// rtDelta accumulates runtime/metrics differences over simulate phases.
type rtDelta struct {
	allocBytes, mallocs, gcCycles, gcCPU, cpu float64
}

func (d *rtDelta) add(a, b rtSample) {
	d.allocBytes += float64(b.allocBytes - a.allocBytes)
	d.mallocs += float64(b.mallocs - a.mallocs)
	d.gcCycles += float64(b.gcCycles - a.gcCycles)
	d.gcCPU += b.gcCPU - a.gcCPU
	d.cpu += b.cpu - a.cpu
}

func (d *rtDelta) merge(o rtDelta) {
	d.allocBytes += o.allocBytes
	d.mallocs += o.mallocs
	d.gcCycles += o.gcCycles
	d.gcCPU += o.gcCPU
	d.cpu += o.cpu
}

// median returns the median of xs, NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs, NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailQuantile is the quantile reported as job_p99_ms: the 99th percentile
// when at least ten of n samples lie beyond it, else the highest quantile
// that keeps ten beyond it, but never below the median.
func tailQuantile(n int) float64 {
	return math.Max(0.5, math.Min(0.99, 1-10/float64(n)))
}

// memSampler tracks the peak of the memory the Go runtime holds from the OS
// (mapped minus released to the OS), sampled every few milliseconds. The
// mapped total alone grows in 4 MiB heap chunks, too coarse for the small
// heaps of the paper-pair machine. Sampling reuses one buffer, so it adds no
// allocations to the runtime/metrics deltas of the simulate phases.
type memSampler struct {
	quit chan struct{}
	done chan struct{}
	once sync.Once
	peak atomic.Uint64

	mu  sync.Mutex // guards buf, read by the sampler and the rounds
	buf []metrics.Sample
}

func startMemSampler() *memSampler {
	m := &memSampler{
		quit: make(chan struct{}),
		done: make(chan struct{}),
		buf: []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		},
	}
	go func() {
		defer close(m.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			m.sample()
			select {
			case <-m.quit:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

func (m *memSampler) sample() {
	m.mu.Lock()
	metrics.Read(m.buf)
	held := m.buf[0].Value.Uint64() - m.buf[1].Value.Uint64()
	m.mu.Unlock()
	for {
		p := m.peak.Load()
		if held <= p || m.peak.CompareAndSwap(p, held) {
			return
		}
	}
}

// reset restarts the peak from the memory held now.
func (m *memSampler) reset() {
	m.peak.Store(0)
	m.sample()
}

// read returns the peak since the last reset, in bytes.
func (m *memSampler) read() uint64 {
	m.sample()
	return m.peak.Load()
}

// stop ends the sampling and waits for the sampler to exit.
func (m *memSampler) stop() {
	m.once.Do(func() { close(m.quit) })
	<-m.done
}
