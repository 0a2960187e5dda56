package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"dcl1sim/internal/experiments"
	"dcl1sim/internal/gpu"
)

// quickIDs is the quick-suite's experiment list. It is named explicitly, so
// a newly registered experiment never changes the benchmark. Together the
// experiments cover all seven design kinds (Baseline and SingleL1 in sec2c,
// Private in fig4, Shared in fig9, Clustered in fig13a, MeshBase in
// ext-mesh, CDXBar in fig19a), all three app classes (sensitive, poor in
// fig13a, insensitive in fig9) and ext-writeback's stores beside loads.
var quickIDs = []string{"sec2c", "fig4", "fig9", "fig13a", "ext-mesh", "fig19a", "ext-writeback"}

// quickKinds is one design of each kind in its quick 16-core shape, the
// machines whose builds the quick-suite's set-up time measures.
var quickKinds = []gpu.Design{
	{Kind: gpu.Baseline},
	{Kind: gpu.Private, DCL1s: 8},
	{Kind: gpu.Shared, DCL1s: 8},
	{Kind: gpu.Clustered, DCL1s: 8, Clusters: 2, Boost1: true},
	{Kind: gpu.CDXBar, CDXGroups: 2, CDXMid: 1},
	{Kind: gpu.SingleL1},
	{Kind: gpu.MeshBase},
}

// quickSetups is how many times the seven machines are built before each
// round, each build of all seven one set-up sample. The builds run outside
// the round's timing and are collected before it starts, so the timed
// rounds hold only the suite's own work, and the samples spread over the
// run instead of one fraction of a second of it.
const quickSetups = 4

// quickSuite regenerates the experiment list on experiments.QuickContext
// with one worker per CPU and serial points. A table fails when its
// simulations fail, when a cell is NaN or infinite, or when it differs from
// round 0's. Set-up is building one machine of each design kind.
func quickSuite(b *bench) error {
	ids := quickIDs
	if b.small {
		ids = []string{"sec2c", "ext-writeback"}
	}
	var exps []experiments.Experiment
	for _, id := range ids {
		e, ok := experiments.ByID(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		exps = append(exps, e)
	}
	seed := derive(b.seed, "app", 0)
	b.workers, b.shards = runtime.GOMAXPROCS(0), 1
	app := mustApp("C-BFS")
	base := experiments.QuickContext().Base
	base.Seed = seed
	setup := func() error {
		for i := 0; i < quickSetups; i++ {
			t0 := time.Now()
			for _, d := range quickKinds {
				if _, err := gpu.NewSystemChecked(base, d, app); err != nil {
					return fmt.Errorf("build %s: %w", d.Name(), err)
				}
			}
			b.setups = append(b.setups, time.Since(t0))
		}
		return nil
	}
	var fresh []float64
	err := b.rounds(setup, func(r *round) error {
		ctx := experiments.QuickContext()
		ctx.Base.Seed = seed
		ctx.Workers = b.workers
		var ran progressCounter
		ctx.Progress = &ran

		pointCycles := int64(ctx.Base.WarmupCycles + ctx.Base.MeasureCycles)
		err := r.simulate(func() (int64, error) {
			for _, e := range exps {
				failed := len(ctx.Failures())
				end := b.span(r, "experiments.run")
				t := ctx.RunExperiment(e)
				end()
				b.attempted++
				switch {
				case len(ctx.Failures()) > failed:
					f := ctx.Failures()[failed]
					b.fail("%s: %d failed points, first %s/%s: %v", e.ID, len(ctx.Failures())-failed, f.Design, f.App, f.Err)
				case badCell(t) != "":
					b.fail("%s: %s", e.ID, badCell(t))
				default:
					b.record(r, e.ID, t)
				}
			}
			return ran.n.Load() * pointCycles, nil
		})
		fresh = append(fresh, float64(ran.n.Load()))
		return err
	})
	if err != nil {
		return err
	}
	var eff []float64
	for _, r := range b.done {
		eff = append(eff, r.cpu.Seconds()/(r.wall.Seconds()*float64(b.workers)))
	}
	b.layer["experiments.points_fresh"] = median(fresh)
	b.layer["experiments.parallel_efficiency"] = median(eff)
	return nil
}

// badCell describes the first NaN or infinite cell of t, or returns "".
func badCell(t *experiments.Table) string {
	for _, row := range t.Rows {
		for i, v := range row.Cells {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Sprintf("row %q column %d is %v", row.Label, i, v)
			}
		}
	}
	return ""
}

// progressCounter counts the supervisor's "ran" lines: one per fresh
// simulation. Writes come from the worker goroutines.
type progressCounter struct{ n atomic.Int64 }

func (c *progressCounter) Write(p []byte) (int, error) {
	c.n.Add(int64(strings.Count(string(p), "  ran ")))
	return len(p), nil
}
