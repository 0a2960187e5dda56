package gpu

import (
	"errors"
	"reflect"
	"testing"

	"dcl1sim/internal/chaos"
	"dcl1sim/internal/health"
	"dcl1sim/internal/workload"
)

// runChaos executes one chaotic run and returns its Results plus the canonical
// rendering of the recorded fault schedule.
func runChaos(t *testing.T, cfg Config, d Design, app workload.Source, spec *chaos.Spec, fast bool) (Results, string) {
	t.Helper()
	s := NewSystem(cfg, d, app)
	if err := s.InstallChaos(spec); err != nil {
		t.Fatalf("InstallChaos: %v", err)
	}
	s.SetFastPath(fast)
	r := s.Run()
	return r, chaos.FormatEvents(s.ChaosEvents())
}

// TestChaosTickModeDeterminism proves the bit-identity claim for fault
// injection: the same (seed, spec) yields a byte-identical fault schedule and
// identical Results with the quiescence fast path and under the legacy
// always-tick engine. Injection decisions are drawn only on component tick
// paths with affected work present, so quiescence skipping cannot perturb
// them.
func TestChaosTickModeDeterminism(t *testing.T) {
	app, ok := workload.ByName("T-AlexNet")
	if !ok {
		t.Fatal("unknown app T-AlexNet")
	}
	cfg := quiesceCfg()
	spec := chaos.Heavy(42)
	spec.Record = true
	for _, d := range []Design{
		{Kind: Baseline},
		{Kind: Clustered, DCL1s: 8, Clusters: 2},
	} {
		d := d
		t.Run(d.Name(), func(t *testing.T) {
			t.Parallel()
			refR, refS := runChaos(t, cfg, d, app, spec, true)
			if refR.FaultsInjected == 0 {
				t.Fatal("heavy chaos injected nothing")
			}
			r, s := runChaos(t, cfg, d, app, spec, false)
			if s != refS {
				t.Error("fault schedule diverged under legacy tick")
			}
			if !reflect.DeepEqual(r, refR) {
				t.Errorf("Results diverged under legacy tick:\nref: %+v\ngot: %+v", refR, r)
			}
		})
	}
}

// TestChaosPerturbsResults: injection must actually reach the timing model —
// a chaotic run's measurements differ from a clean run's.
func TestChaosPerturbsResults(t *testing.T) {
	app, _ := workload.ByName("T-AlexNet")
	cfg := quiesceCfg()
	d := Design{Kind: Clustered, DCL1s: 8, Clusters: 2}
	clean, err := RunChecked(cfg, d, app, HealthOptions{})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	dirty, err := RunChecked(cfg, d, app, HealthOptions{Chaos: chaos.Heavy(42)})
	if err != nil {
		t.Fatalf("chaotic run: %v", err)
	}
	if dirty.FaultsInjected == 0 {
		t.Fatal("chaotic run reports zero faults")
	}
	if clean.FaultsInjected != 0 {
		t.Fatalf("clean run reports %d faults", clean.FaultsInjected)
	}
	if clean.IPC == dirty.IPC && clean.L1MissRate == dirty.L1MissRate {
		t.Errorf("heavy chaos left results untouched: IPC %v miss %v", clean.IPC, clean.L1MissRate)
	}
}

// TestChaosSmokeAllDesignKinds runs every design kind under the light preset
// through the full checked pipeline: no deadlock, no invariant violation, and
// at least one injected fault each.
func TestChaosSmokeAllDesignKinds(t *testing.T) {
	app, _ := workload.ByName("T-AlexNet")
	cfg := quiesceCfg()
	for _, d := range quiesceDesigns() {
		d := d
		t.Run(d.Name(), func(t *testing.T) {
			t.Parallel()
			r, err := RunChecked(cfg, d, app, HealthOptions{Chaos: chaos.Light(3)})
			if err != nil {
				t.Fatalf("light chaos failed the run: %v", err)
			}
			if r.FaultsInjected == 0 {
				t.Error("light chaos injected nothing")
			}
			if r.IPC <= 0 {
				t.Error("run made no progress under light chaos")
			}
		})
	}
}

// TestChaosDeadlockTripsWatchdog injects a credit-loss deadlock (every
// crossbar output permanently jammed from cycle 500) and asserts PR 1's
// watchdog converts it into a *health.DeadlockError within the configured
// stall window — well before the run's natural end — carrying a dump that
// names stalled subsystems.
func TestChaosDeadlockTripsWatchdog(t *testing.T) {
	app, _ := workload.ByName("T-AlexNet")
	cfg := quiesceCfg()
	d := Design{Kind: Clustered, DCL1s: 8, Clusters: 2}
	const window = 1500
	_, err := RunChecked(cfg, d, app, HealthOptions{
		Chaos:       &chaos.Spec{Seed: 1, JamAllAfter: 500},
		StallWindow: window,
	})
	var de *health.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *health.DeadlockError, got %v", err)
	}
	// The monitor samples probes every StallWindow/8 cycles, so the observed
	// no-progress span is the configured window rounded up to that cadence.
	if de.Window < window || de.Window > window+window/4 {
		t.Errorf("Window = %d, want about %d (within one probe period)", de.Window, window)
	}
	total := int64(cfg.WarmupCycles + cfg.MeasureCycles)
	if de.RefCycle >= total {
		t.Errorf("deadlock detected at cycle %d, not within the run (%d cycles)", de.RefCycle, total)
	}
	if de.RefCycle < 500 {
		t.Errorf("deadlock detected at cycle %d, before the jam at 500", de.RefCycle)
	}
	if de.Dump == nil {
		t.Fatal("DeadlockError carries no dump")
	}
	if len(de.Dump.Stalled()) == 0 {
		t.Error("dump names no stalled subsystems")
	}
	if len(de.Dump.Components) == 0 {
		t.Error("dump carries no component state")
	}
}

// TestChaosCorruptionTripsAudit injects a one-shot queue-accounting
// corruption and asserts the final invariant audit catches it as a
// *health.InvariantError.
func TestChaosCorruptionTripsAudit(t *testing.T) {
	app, _ := workload.ByName("T-AlexNet")
	cfg := quiesceCfg()
	d := Design{Kind: Clustered, DCL1s: 8, Clusters: 2}
	_, err := RunChecked(cfg, d, app, HealthOptions{
		Chaos: &chaos.Spec{Seed: 1, CorruptAt: 700},
	})
	var ie *health.InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("want *health.InvariantError, got %v", err)
	}
	if ie.Dump == nil || len(ie.Dump.Violations) == 0 {
		t.Fatal("InvariantError carries no violations")
	}
}

// TestInstallChaosErrors: double installation and late installation are build
// mistakes, not silently tolerated states.
func TestInstallChaosErrors(t *testing.T) {
	app, _ := workload.ByName("T-AlexNet")
	s := NewSystem(quiesceCfg(), Design{Kind: Baseline}, app)
	if err := s.InstallChaos(nil); err != nil {
		t.Errorf("nil spec errored: %v", err)
	}
	if err := s.InstallChaos(chaos.Light(1)); err != nil {
		t.Fatalf("first install: %v", err)
	}
	if err := s.InstallChaos(chaos.Light(2)); err == nil {
		t.Error("second install did not error")
	}
	if err := NewSystem(quiesceCfg(), Design{Kind: Baseline}, app).
		InstallChaos(&chaos.Spec{FlitDelayProb: 2}); err == nil {
		t.Error("invalid spec installed")
	}
	if _, err := RunChecked(quiesceCfg(), Design{Kind: Baseline}, app,
		HealthOptions{Chaos: &chaos.Spec{OutJamProb: -1}}); err == nil {
		t.Error("RunChecked accepted an invalid chaos spec")
	}
}
