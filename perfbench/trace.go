package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	dcl1 "dcl1sim"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a round's root span
	Run    string `json:"run"`    // workload, seed and round
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the process's benchmark start
	End    int64  `json:"end_ns"`
	round  int
}

// span opens a span named name under the innermost open span of round r and
// returns the function that closes it. Untraced rounds, and work outside a
// round (r == nil), record nothing.
func (b *bench) span(r *round, name string) func() {
	if r == nil || !r.traced {
		return func() {}
	}
	parent := -1
	if n := len(b.open); n > 0 {
		parent = b.spans[b.open[n-1]].ID
	}
	i := len(b.spans)
	b.spans = append(b.spans, span{
		ID:     i,
		Parent: parent,
		Run:    fmt.Sprintf("%s/seed%d/round%d", b.name, b.seed, r.index),
		Name:   name,
		Start:  time.Since(b.start).Nanoseconds(),
		round:  r.index,
	})
	b.open = append(b.open, i)
	return func() {
		b.spans[i].End = time.Since(b.start).Nanoseconds()
		b.open = b.open[:len(b.open)-1]
	}
}

// spanDurations lists the durations, in seconds, of every span named name.
func (b *bench) spanDurations(name string) []float64 {
	var out []float64
	for _, s := range b.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// spanRoundTotals sums the spans named name per traced round, in seconds.
func (b *bench) spanRoundTotals(name string) []float64 {
	totals := map[int]float64{}
	for _, s := range b.spans {
		if s.Name == name {
			totals[s.round] += float64(s.End-s.Start) / 1e9
		}
	}
	var out []float64
	for _, t := range totals {
		out = append(out, t)
	}
	return out
}

// writeSpans writes the traced run's spans as JSON.
func (b *bench) writeSpans(ledger map[string]interface{}) error {
	data, err := json.MarshalIndent(struct {
		Host  map[string]interface{} `json:"host"`
		Spans []span                 `json:"spans"`
	}{ledger, b.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(b.outPath("spans.json"), data, 0o644)
}

// simSink is the dcl1.WithMetrics sink of a traced simulation. It splits
// the host time between consecutive snapshots by whether the window retired
// instructions, and keeps the final snapshot's per-component counters.
type simSink struct {
	last      time.Time
	lastCycle int64
	lastInstr int64

	busyNs, idleNs         float64
	busyCycles, idleCycles int64
	instructions           int64
	final                  []dcl1.MetricsSample
}

// options returns the metrics options that feed s, sampling every `every`
// core cycles; the host clock starts now.
func (s *simSink) options(every int64) *dcl1.MetricsOptions {
	s.last, s.lastCycle, s.lastInstr = time.Now(), 0, 0
	return &dcl1.MetricsOptions{Every: every, Sink: dcl1.MetricsSinkFunc(s.emit)}
}

func (s *simSink) emit(b *dcl1.MetricsBatch) {
	now := time.Now()
	var instr int64
	for _, smp := range b.Samples {
		if strings.HasSuffix(smp.ID, "/core_instructions_total") {
			instr += int64(smp.Value)
		}
	}
	d := instr - s.lastInstr
	if d < 0 {
		d = instr // the counters restart when the warmup window ends
	}
	if cycles := b.Cycle - s.lastCycle; cycles > 0 {
		ns := float64(now.Sub(s.last).Nanoseconds())
		if d > 0 {
			s.busyNs += ns
			s.busyCycles += cycles
		} else {
			s.idleNs += ns
			s.idleCycles += cycles
		}
	}
	s.instructions += d
	s.last, s.lastCycle, s.lastInstr = now, b.Cycle, instr
	if b.Final {
		s.final = b.Clone().Samples
	}
}

func (s *simSink) merge(o *simSink) {
	s.busyNs += o.busyNs
	s.idleNs += o.idleNs
	s.busyCycles += o.busyCycles
	s.idleCycles += o.idleCycles
	s.instructions += o.instructions
}

// simCounterNames are the simulated per-component figures reported per
// design, with their units.
var simCounterNames = []metricDef{
	{"core.instructions", "count", ""},
	{"core.stall_no_ready_share", "ratio", ""},
	{"core.load_rtt_mean_cycles", "cycles", ""},
	{"core.load_rtt_p99_cycles", "cycles", ""},
	{"l1.accesses", "count", ""},
	{"l1.miss_rate", "ratio", ""},
	{"l1.replication_ratio", "ratio", ""},
	{"l1.mshr_stall_cycles", "cycles", ""},
	{"l1.port_util_max", "ratio", ""},
	{"noc1.flits", "count", ""},
	{"noc2.flits", "count", ""},
	{"noc.stall_no_room", "count", ""},
	{"noc.reply_link_util_max", "ratio", ""},
	{"l2.miss_rate", "ratio", ""},
	{"dram.reads", "count", ""},
	{"dram.writes", "count", ""},
	{"dram.row_hit_rate", "ratio", ""},
	{"dram.bus_util", "ratio", ""},
}

// designPrefixes name the designs whose simulated counters are reported:
// Baseline and Sh40+C10+Boost (scaled to the machine in small runs).
var designPrefixes = []string{"base", "boost"}

func simCounterDefs() []metricDef {
	var out []metricDef
	for _, p := range designPrefixes {
		for _, d := range simCounterNames {
			out = append(out, metricDef{p + "." + d.name, d.unit,
				"none: identical in a speed change; in a model change they explain the IPC change"})
		}
	}
	return out
}

// simCounters derives the per-design figures from a final snapshot taken
// after a measurement window of measured core cycles.
func simCounters(samples []dcl1.MetricsSample, measured int64) map[string]float64 {
	sum := map[string]float64{}
	max := map[string]float64{}
	count := map[string]float64{}
	var rttSum, rttCount, rttP99 float64
	for _, s := range samples {
		name := s.ID[strings.LastIndex(s.ID, "/")+1:]
		if name == "core_load_rtt_cycles" {
			rttSum += float64(s.Sum)
			rttCount += float64(s.Count)
			rttP99 = maxf(rttP99, float64(s.P99))
			continue
		}
		sum[name] += s.Value
		count[name]++
		max[name] = maxf(max[name], s.Value)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]float64{
		"core.instructions":         sum["core_instructions_total"],
		"core.stall_no_ready_share": ratio(sum["core_stall_no_ready_total"], sum["core_cycles_total"]),
		"core.load_rtt_mean_cycles": ratio(rttSum, rttCount),
		"core.load_rtt_p99_cycles":  rttP99,
		"l1.accesses":               sum["l1_accesses_total"],
		"l1.miss_rate":              ratio(sum["l1_load_misses_total"], sum["l1_loads_total"]),
		"l1.replication_ratio":      ratio(sum["l1_replicated_misses_total"], sum["l1_load_misses_total"]),
		"l1.mshr_stall_cycles":      sum["l1_mshr_stall_cycles_total"],
		"l1.port_util_max":          ratio(max["l1_accesses_total"], float64(measured)),
		"noc1.flits":                sum["noc1_flits_total"],
		"noc2.flits":                sum["noc2_flits_total"],
		"noc.stall_no_room":         sum["noc1_stall_no_room_total"] + sum["noc2_stall_no_room_total"],
		"noc.reply_link_util_max":   maxf(max["noc1_reply_link_util_max"], max["noc2_reply_link_util_max"]),
		"l2.miss_rate":              ratio(sum["l2_load_misses_total"], sum["l2_loads_total"]),
		"dram.reads":                sum["dram_reads_total"],
		"dram.writes":               sum["dram_writes_total"],
		"dram.row_hit_rate":         ratio(sum["dram_row_hits_total"], sum["dram_row_hits_total"]+sum["dram_row_misses_total"]),
		"dram.bus_util":             ratio(sum["dram_bus_utilization"], count["dram_bus_utilization"]),
	}
}

// setSimCounters stores one design's figures as per-layer values.
func (b *bench) setSimCounters(prefix string, samples []dcl1.MetricsSample, measured int64) {
	for k, v := range simCounters(samples, measured) {
		b.layer[prefix+"."+k] = v
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
