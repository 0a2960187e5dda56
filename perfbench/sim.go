package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	dcl1 "dcl1sim"
	"dcl1sim/internal/core"
	"dcl1sim/internal/experiments"
	"dcl1sim/internal/gpu"
	"dcl1sim/internal/sim"
	"dcl1sim/internal/workload"
)

// sinkEvery is the metrics sink's sampling period in core cycles on traced
// rounds: fine enough to split busy from idle stretches, coarse enough that
// snapshots stay a small share of the run.
const sinkEvery = 1000

// derive returns the sub-seed of the workload seed for one named input, so
// every generated input changes with --seed and none repeats another's.
func derive(seed uint64, name string, i int) uint64 {
	x := seed ^ 0x9e3779b97f4a7c15*uint64(i+1)
	for _, c := range []byte(name) {
		x = (x ^ uint64(c)) * 0x100000001b3
	}
	// splitmix64 finalizer
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// quickMachine is the experiments' quick 16-core machine with the given
// warmup and measurement windows.
func quickMachine(warmup, measure sim.Cycle) gpu.Config {
	cfg := experiments.QuickContext().Base
	cfg.WarmupCycles, cfg.MeasureCycles = warmup, measure
	return cfg
}

func mustDesign(name string) gpu.Design {
	d, err := dcl1.ParseDesign(name)
	if err != nil {
		panic(err) // fixed names in this file
	}
	return d
}

func mustApp(name string) workload.Spec {
	app, ok := dcl1.AppByName(name)
	if !ok {
		panic("unknown app " + name) // fixed names in this file
	}
	return app
}

// build builds one system as part of a set-up, recording a gpu.build span.
func (b *bench) build(r *round, cfg gpu.Config, d gpu.Design, app workload.Source) (*gpu.System, error) {
	defer b.span(r, "gpu.build")()
	return gpu.NewSystemChecked(cfg, d, app)
}

// runPoint runs a built system on the serial engine at default options, as
// one unit of round r. On traced rounds the metrics sink is attached and the
// design's simulated counters are kept under prefix. It returns the Results
// and whether the point succeeded.
func (b *bench) runPoint(r *round, s *gpu.System, prefix string) (gpu.Results, bool) {
	key := fmt.Sprintf("%s/%s", s.D.Name(), s.App.Label())
	var opts gpu.HealthOptions
	var sink simSink
	if r.traced {
		opts.Metrics = sink.options(sinkEvery)
	}
	var res gpu.Results
	err := r.simulate(func() (int64, error) {
		defer b.span(r, "gpu.run")()
		var err error
		res, err = s.RunChecked(opts)
		return int64(s.Cfg.WarmupCycles + s.Cfg.MeasureCycles), err
	})
	if err != nil {
		b.fail("%s: run: %v", key, err)
		return gpu.Results{}, false
	}
	if r.traced {
		r.sink.merge(&sink)
		b.setSimCounters(prefix, sink.final, int64(s.Cfg.MeasureCycles))
	}
	return res, b.record(r, key, res)
}

// pairSetups is how many extra set-ups a paper-pair run measures before
// its first round. Each round's own set-up is one more sample; the extra
// systems are dropped and collected before the rounds start, so their
// garbage does not move the rounds' memory peak.
const pairSetups = 10

// paperPair runs C-BFS on the 80-core Table II machine with the suite's
// windows, first on Baseline, then on Sh40+C10+Boost. A round fails unless
// the decoupled design's IPC beats the baseline's, the paper's headline
// ordering.
func paperPair(b *bench) error {
	cfg := gpu.Config{WarmupCycles: 12000, MeasureCycles: 28000}
	designs := []gpu.Design{mustDesign("Baseline"), mustDesign("Sh40+C10+Boost")}
	if b.small {
		cfg = quickMachine(1000, 2000)
		designs[1] = mustDesign("Sh8+C2+Boost")
	}
	cfg.Seed = derive(b.seed, "app", 0)
	app := mustApp("C-BFS")
	b.workers, b.shards = 1, 1
	for k := 0; k < pairSetups; k++ {
		t0 := time.Now()
		for _, d := range designs {
			if _, err := gpu.NewSystemChecked(cfg, d, app); err != nil {
				return fmt.Errorf("build %s: %w", d.Name(), err)
			}
		}
		b.setups = append(b.setups, time.Since(t0))
		runtime.GC()
	}
	return b.rounds(nil, func(r *round) error {
		t0 := time.Now()
		systems := make([]*gpu.System, len(designs))
		for i, d := range designs {
			s, err := b.build(r, cfg, d, app)
			if err != nil {
				b.attempted++
				b.fail("round %d: build %s: %v", r.index, d.Name(), err)
				return nil
			}
			systems[i] = s
		}
		b.setups = append(b.setups, time.Since(t0))
		var ipc []float64
		for i, s := range systems {
			b.attempted++
			if res, ok := b.runPoint(r, s, designPrefixes[i]); ok {
				ipc = append(ipc, res.IPC)
			}
		}
		if len(ipc) == 2 && ipc[1] <= ipc[0] {
			b.fail("round %d: %s IPC %.4f does not exceed %s IPC %.4f",
				r.index, designs[1].Name(), ipc[1], designs[0].Name(), ipc[0])
		}
		return nil
	})
}

// traceDrain captures T-AlexNet for the 80-core machine with a finite op
// count per wavefront, encodes and decodes the trace, and replays it on
// Sh40+C10+Boost through a window several times longer than the trace
// needs: the run ends in a straggler tail and a fast-forwarded idle stretch.
func traceDrain(b *bench) error {
	cfg := gpu.Config{WarmupCycles: 1, MeasureCycles: 100000}
	d := mustDesign("Sh40+C10+Boost")
	ops := 300
	if b.small {
		cfg = quickMachine(1, 10000)
		d = mustDesign("Sh8+C2+Boost")
		ops = 60
	}
	app := mustApp("T-AlexNet")
	win := cfg.WithDefaults()
	traceSeed := derive(b.seed, "trace", 0)
	b.workers, b.shards = 1, 1
	return b.rounds(nil, func(r *round) error {
		t0 := time.Now()
		end := b.span(r, "workload.capture")
		tr := dcl1.CaptureTrace(app, win.Cores, ops, win.Sched, traceSeed)
		end()
		var buf bytes.Buffer
		end = b.span(r, "trace.encode")
		err := dcl1.WriteTrace(&buf, tr)
		end()
		b.attempted++
		if err != nil {
			b.fail("encode trace: %v", err)
			return nil
		}
		capture := time.Since(t0)
		size := buf.Len()
		b.record(r, "trace", buf.Bytes())
		t0 = time.Now()
		end = b.span(r, "trace.decode")
		replay, err := dcl1.ReadTrace(&buf)
		end()
		if err != nil {
			b.fail("decode trace: %v", err)
			return nil
		}
		s, err := b.build(r, cfg, d, replay)
		b.attempted++
		if err != nil {
			b.fail("round %d: build %s: %v", r.index, d.Name(), err)
			return nil
		}
		b.setups = append(b.setups, capture+time.Since(t0))
		res, ok := b.runPoint(r, s, designPrefixes[1])
		if r.traced {
			b.layer["trace.bytes"] = float64(size)
		}
		// Every recorded op issues once; only the one-cycle warmup, whose
		// issues the measurement reset discards, may account for a gap.
		issued := int64(math.Round(res.IPC * float64(res.MeasuredCycles)))
		if gap := traceOps(replay, win.Cores) - issued; ok && (gap < 0 || gap > int64(win.Cores*replay.Waves)) {
			b.fail("round %d: the trace did not drain: %d recorded ops not issued", r.index, gap)
		}
		return nil
	})
}

// traceOps counts the ops a trace replays on a machine of the given cores.
func traceOps(t *dcl1.Trace, cores int) int64 {
	var n int64
	for c := 0; c < cores; c++ {
		for w := 0; w < t.Waves; w++ {
			for p := t.Program(cores, c, w, 0, 0); p.Next().Kind != core.OpEnd; {
				n++
			}
		}
	}
	return n
}
