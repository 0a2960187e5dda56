package gpu

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dcl1sim/internal/metrics"
	"dcl1sim/internal/workload"
)

// The single-module golden files pin the refactor's central promise: a
// Modules<=1 run is byte-identical to the pre-refactor simulator. The files
// under testdata/golden_single were generated from the tree BEFORE the
// multi-module refactor landed (DCL1_UPDATE_GOLDEN=1 go test -run
// SingleModuleGolden), so any drift in Results JSON or the metrics stream —
// for any design kind or tick mode — fails here.

const updateGoldenEnv = "DCL1_UPDATE_GOLDEN"

// goldenVariant is one execution mode of the identical simulation.
type goldenVariant struct {
	key    string
	legacy bool
}

func goldenVariants() []goldenVariant {
	return []goldenVariant{
		{key: "fast"},
		{key: "legacy", legacy: true},
	}
}

// goldenDesigns covers all seven design kinds on the small test machine.
func goldenDesigns() []struct {
	name string
	d    Design
} {
	return []struct {
		name string
		d    Design
	}{
		{"baseline", Design{Kind: Baseline}},
		{"pr4", Design{Kind: Private, DCL1s: 4}},
		{"sh4", Design{Kind: Shared, DCL1s: 4}},
		{"sh4c2", Design{Kind: Clustered, DCL1s: 4, Clusters: 2}},
		{"cdxbar", Design{Kind: CDXBar, CDXGroups: 4, CDXMid: 2}},
		{"single-l1", Design{Kind: SingleL1}},
		{"mesh", Design{Kind: MeshBase}},
	}
}

// runGolden executes one variant and returns (Results JSON, metrics NDJSON).
func runGolden(t *testing.T, d Design, v goldenVariant) ([]byte, []byte) {
	t.Helper()
	cfg := testCfg()
	var stream bytes.Buffer
	opts := HealthOptions{
		LegacyTick: v.legacy,
		Metrics:    &metrics.Options{Every: 2048, Sink: metrics.NewNDJSONSink(&stream)},
	}
	r, err := RunChecked(cfg, d, sharingApp(), opts)
	if err != nil {
		t.Fatalf("%s/%s: %v", d.Name(), v.key, err)
	}
	rj, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	rj = append(rj, '\n')
	return rj, stream.Bytes()
}

// TestSingleModuleGolden proves every single-module run — in both tick
// modes — produces Results and a metrics stream
// byte-identical to the pre-refactor simulator, across all seven design
// kinds. This is the Modules=1 equivalence gate of the multi-GPU refactor.
func TestSingleModuleGolden(t *testing.T) {
	update := os.Getenv(updateGoldenEnv) != ""
	dir := filepath.Join("testdata", "golden_single")
	if update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, gd := range goldenDesigns() {
		gd := gd
		t.Run(gd.name, func(t *testing.T) {
			t.Parallel()
			resPath := filepath.Join(dir, gd.name+".json")
			ndPath := filepath.Join(dir, gd.name+".ndjson")
			var wantRes, wantStream []byte
			for i, v := range goldenVariants() {
				res, stream := runGolden(t, gd.d, v)
				if i == 0 {
					wantRes, wantStream = res, stream
					if update {
						if err := os.WriteFile(resPath, res, 0o644); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(ndPath, stream, 0o644); err != nil {
							t.Fatal(err)
						}
						continue
					}
					golden, err := os.ReadFile(resPath)
					if err != nil {
						t.Fatalf("missing golden (generate with %s=1): %v", updateGoldenEnv, err)
					}
					if !bytes.Equal(res, golden) {
						t.Errorf("Results JSON drifted from pre-refactor golden %s:\n got: %s\nwant: %s",
							resPath, res, golden)
					}
					goldenStream, err := os.ReadFile(ndPath)
					if err != nil {
						t.Fatalf("missing golden stream: %v", err)
					}
					if !bytes.Equal(stream, goldenStream) {
						t.Errorf("metrics stream drifted from pre-refactor golden %s (%d vs %d bytes)",
							ndPath, len(stream), len(goldenStream))
					}
					continue
				}
				if !bytes.Equal(res, wantRes) {
					t.Errorf("%s: Results diverged from fast path:\n got: %s\nwant: %s", v.key, res, wantRes)
				}
				if !bytes.Equal(stream, wantStream) {
					t.Errorf("%s: metrics stream diverged from fast path (%d vs %d bytes)",
						v.key, len(stream), len(wantStream))
				}
			}
		})
	}
}

// TestModulesOneMatchesSingle pins the dispatch contract: an explicit
// Modules=1 design runs the exact single-module build — Results and the
// metrics stream are byte-identical to the same design with Modules unset,
// the canonical name carries no module suffix, and no component name grows a
// module prefix.
func TestModulesOneMatchesSingle(t *testing.T) {
	for _, gd := range goldenDesigns() {
		gd := gd
		t.Run(gd.name, func(t *testing.T) {
			t.Parallel()
			res0, stream0 := runGolden(t, gd.d, goldenVariant{key: "m0"})
			d1 := gd.d
			d1.Modules = 1
			res1, stream1 := runGolden(t, d1, goldenVariant{key: "m1"})
			if !bytes.Equal(res0, res1) {
				t.Errorf("Modules=1 Results differ from unset:\n got: %s\nwant: %s", res1, res0)
			}
			if !bytes.Equal(stream0, stream1) {
				t.Errorf("Modules=1 metrics stream differs from unset (%d vs %d bytes)",
					len(stream1), len(stream0))
			}
			if bytes.Contains(stream1, []byte(`"m0.`)) || bytes.Contains(stream1, []byte(`"m1.`)) {
				t.Errorf("single-module stream carries a module component prefix")
			}
		})
	}
}

var _ = workload.Spec{} // keep the import stable across golden regeneration
