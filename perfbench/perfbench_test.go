package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// runSmall runs one workload at minimum size and returns its results digest
// and result line, failing the test unless every correctness gate passed and
// the result holds exactly the metrics of its kind.
func runSmall(t *testing.T, name string, seed, trace int) (string, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{
		"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", "0.001",
		"--trace", fmt.Sprint(trace), "--small", "--out", t.TempDir(),
	}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s seed %d trace %d: exit %d: %s", name, seed, trace, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: result line: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s seed %d trace %d: correct=%v failed=%d attempted=%d\n%s",
			name, seed, trace, res.Correct, res.Failed, res.Attempted, out.String())
	}
	want := endToEnd
	if trace == 1 {
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s trace %d: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
	}
	for _, d := range want {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("%s trace %d: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
		}
	}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 4 && f[0] == "digest" {
			return f[3], res
		}
	}
	t.Fatalf("%s: no digest line", name)
	return "", res
}

// TestWorkloadsAtMinimumSize runs every workload through its gates: the
// same seed repeats the results digest, untraced or traced (two rounds, so
// the round-to-round repeat check runs too), and another seed changes it.
func TestWorkloadsAtMinimumSize(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			first, res := runSmall(t, name, 1, 0)
			if res.Metrics["wall_s"].Value <= 0 || res.Metrics["setup_s"].Value <= 0 {
				t.Errorf("wall_s %v, setup_s %v: want both positive", res.Metrics["wall_s"], res.Metrics["setup_s"])
			}
			if again, _ := runSmall(t, name, 1, 1); again != first {
				t.Errorf("seed 1 digest %s, then %s", first, again)
			}
			if other, _ := runSmall(t, name, 2, 0); other == first {
				t.Errorf("seeds 1 and 2 share digest %s", first)
			}
		})
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the printed metrics and the
// benchmark definition in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	for _, c := range []struct {
		kind string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", def.EndToEnd, endToEnd}, {"per_layer", def.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", c.kind, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", c.kind, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dcl1sim/internal/core.(*Core).Tick":                                             "core",
		"dcl1sim/internal/sim.(*Port[go.shape.*dcl1sim/internal/mem.Access]).commitEdge": "sim",
		"dcl1sim/internal/gpu.(*System).wireNoC1.func1":                                  "gpu",
		"dcl1sim/internal/noc.NewCrossbar":                                               "noc",
		"dcl1sim/internal/workload.(*gen).Next":                                          "runtime.other",
		"runtime.mallocgc":                                                               "runtime.other",
		"encoding/json.(*encodeState).marshal":                                           "runtime.other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
