package gpu

import (
	"errors"
	"fmt"

	"dcl1sim/internal/core"
	"dcl1sim/internal/metrics"
	"dcl1sim/internal/noc"
	"dcl1sim/internal/power"
)

// registerMetrics wires every component's series into the system's registry
// and builds the power-zone meter over them. It runs unconditionally at the
// end of NewSystem: registration is closures over counters the components
// already maintain, so an unobserved registry costs nothing per cycle, and
// building it always keeps the series set — and therefore Results, which is
// a view over the registry — identical whether or not telemetry is attached.
func (s *System) registerMetrics() {
	// A multi-GPU machine shares one registry across modules (injected via
	// fabric before build); component names carry the "m<i>." prefix, so the
	// series sets stay disjoint.
	r := s.Reg
	if r == nil {
		r = metrics.NewRegistry()
		s.Reg = r
	}

	for i, co := range s.Cores {
		co.RegisterMetrics(r, s.cname(fmt.Sprintf("core-%d", i)))
	}
	for _, nd := range s.Nodes {
		nd.RegisterMetrics(r, "core")
	}
	for _, l2 := range s.L2 {
		l2.RegisterMetrics(r, "noc2", "l2")
	}
	for _, dc := range s.Drams {
		dc.RegisterMetrics(r, dc.P.Name, "mem")
	}
	for _, x := range s.Noc1Req {
		x.RegisterMetrics(r, "noc1", "noc1", false)
	}
	for _, x := range s.Noc1Rep {
		x.RegisterMetrics(r, "noc1", "noc1", true)
	}
	for _, x := range s.Noc2Req {
		x.RegisterMetrics(r, "noc2", "noc2", false)
	}
	for _, x := range s.Noc2Rep {
		x.RegisterMetrics(r, "noc2", "noc2", true)
	}
	if s.MeshReq != nil {
		s.MeshReq.RegisterMetrics(r, s.cname("mesh-req"), "noc2", "noc2")
		s.MeshRep.RegisterMetrics(r, s.cname("mesh-rep"), "noc2", "noc2")
	}

	r.Gauge(s.cname("tracker"), "core", "l1_replicas_mean",
		"mean copies per cached line, sampled at line install",
		func() float64 { return s.Tracker.MeanReplicas() })
	r.Counter(s.cname("chaos"), "core", "chaos_faults_total",
		"fault occurrences across all chaos injectors",
		func() int64 { return s.FaultsInjected() })

	s.meter = power.NewMeter(s.buildZones())
	for _, name := range s.meter.Zones() {
		zone := name
		r.Gauge(s.cname("zone-"+zone), "core", "power_zone_watts",
			"metered zone power over the last sample window",
			func() float64 { return s.meter.Watts(zone) })
	}
	r.Gauge(s.cname("governor"), "core", "power_throttle_level",
		"governor duty-cycle level (eighths of issue slots withheld)",
		func() float64 {
			if s.gov == nil {
				return 0
			}
			return float64(s.gov.level)
		})
	r.Gauge(s.cname("governor"), "core", "power_effective_core_mhz",
		"core frequency equivalent of the current duty cycle",
		func() float64 {
			level := 0
			if s.gov != nil {
				level = s.gov.level
			}
			return float64(s.Cfg.CoreMHz) * float64(8-level) / 8
		})
	r.Gauge(s.cname("governor"), "core", "power_cap_budget_watts",
		"armed power budget (0 when uncapped)",
		func() float64 {
			if s.gov == nil {
				return 0
			}
			return s.gov.cap.BudgetWatts
		})
}

// buildZones assembles the NVML-style power zones from component counters:
// the compute side (cores + L1/DC-L1 + NoC#1), the memory side (L2 + DRAM +
// NoC#2, with the mesh standing in for NoC#2 on MeshBase), and the whole
// module. Term closures capture stats-field addresses, which survive the
// warmup reset (it zeroes structs in place).
func (s *System) buildZones() []power.Zone {
	var gpuTerms, memTerms []power.ZoneTerm
	for _, c := range s.Cores {
		st := &c.Stat
		gpuTerms = append(gpuTerms, power.ZoneTerm{
			Energy: power.EnergyPerInstruction, Count: func() int64 { return st.Issued }})
	}
	for _, n := range s.Nodes {
		st := &n.Ctrl.Stat
		gpuTerms = append(gpuTerms, power.ZoneTerm{
			Energy: power.EnergyPerL1Access, Count: func() int64 { return st.Accesses }})
	}
	noc1 := append(append([]*noc.Crossbar{}, s.Noc1Req...), s.Noc1Rep...)
	for _, x := range noc1 {
		st := &x.Stat
		gpuTerms = append(gpuTerms, power.ZoneTerm{
			Energy: power.EnergyPerNoc1Flit, Count: func() int64 { return st.FlitsMoved }})
	}

	for _, l2 := range s.L2 {
		st := &l2.Stat
		memTerms = append(memTerms, power.ZoneTerm{
			Energy: power.EnergyPerL2Access, Count: func() int64 { return st.Accesses }})
	}
	for _, dc := range s.Drams {
		st := &dc.Stat
		memTerms = append(memTerms,
			power.ZoneTerm{Energy: power.EnergyPerDramAccess, Count: func() int64 { return st.Reads + st.Writes }},
			power.ZoneTerm{Energy: power.EnergyPerDramRefresh, Count: func() int64 { return st.Refreshes }})
	}
	noc2 := append(append([]*noc.Crossbar{}, s.Noc2Req...), s.Noc2Rep...)
	for _, x := range noc2 {
		st := &x.Stat
		memTerms = append(memTerms, power.ZoneTerm{
			Energy: power.EnergyPerNoc2Flit, Count: func() int64 { return st.FlitsMoved }})
	}
	if s.MeshReq != nil {
		req, rep := &s.MeshReq.Stat, &s.MeshRep.Stat
		memTerms = append(memTerms, power.ZoneTerm{
			Energy: power.EnergyPerNoc2Flit, Count: func() int64 { return req.FlitHops + rep.FlitHops }})
	}

	gpuStatic := float64(len(s.Cores))*power.StaticCoreWatts +
		float64(len(s.Nodes))*power.StaticL1Watts
	memStatic := float64(len(s.L2))*power.StaticL2Watts +
		float64(len(s.Drams))*power.StaticChannelWatts
	moduleTerms := append(append([]power.ZoneTerm{}, gpuTerms...), memTerms...)
	return []power.Zone{
		{Name: power.ZoneGPU, Static: gpuStatic, Terms: gpuTerms},
		{Name: power.ZoneMemory, Static: memStatic, Terms: memTerms},
		{Name: power.ZoneModule, Static: gpuStatic + memStatic + power.StaticModuleWatts, Terms: moduleTerms},
	}
}

// governor is the power-capping control loop: at every sample point (after
// the meter closes its window) it compares the governed zone's watts against
// the budget and moves the core duty-cycle throttle one step at a time —
// up when over budget, down when comfortably under (capReleaseFraction
// hysteresis so the level doesn't flap around the budget). It runs only in
// barrier context, so capped runs stay deterministic in every tick mode.
type governor struct {
	meter *power.Meter
	cap   power.CapSpec
	cores []*core.Core
	level int
}

// capReleaseFraction is the hysteresis band: the governor backs off a level
// only once the zone drops below this fraction of the budget.
const capReleaseFraction = 0.9

func (g *governor) step() {
	w := g.meter.Watts(g.cap.Zone)
	switch {
	case w > g.cap.BudgetWatts && g.level < g.cap.MaxLevel:
		g.level++
	case w < g.cap.BudgetWatts*capReleaseFraction && g.level > 0:
		g.level--
	default:
		return
	}
	for _, c := range g.cores {
		c.SetThrottle(g.level)
	}
}

// InstallTelemetry attaches live metrics collection (and optionally the
// power-capping governor) to this system. It must be called after NewSystem
// and before the run starts. The collector registers on the core clock as a
// sleeper whose next-work cycle is the next sample point, so the sample grid
// — exact multiples of opts.Every — is identical in fast-path and legacy-tick
// execution; the registry walk itself happens in a core-clock barrier task,
// after the edge's port commits.
//
// With a nil opts.Sink nothing is snapshotted, but sample-point hooks still
// run: a cap works without an observer.
func (s *System) InstallTelemetry(opts metrics.Options, cap *power.CapSpec) error {
	if s.collector != nil {
		return errors.New("gpu: telemetry already installed")
	}
	if cap != nil {
		spec := *cap
		if err := spec.Validate(); err != nil {
			return err
		}
		s.gov = &governor{meter: s.meter, cap: spec, cores: s.Cores}
	}
	col := metrics.NewCollector(s.Reg, s.D.Name(), s.App.Label(), opts.Every, opts.Sink)
	mhz := s.CoreClk.FreqMHz()
	col.SetTimeFunc(func(cyc int64) int64 { return cyc * 1_000_000 / mhz })
	var lastPs int64
	col.OnSample(func(cycle int64) {
		ps := cycle * 1_000_000 / mhz
		s.meter.Advance(float64(ps-lastPs) * 1e-12)
		lastPs = ps
	})
	if s.gov != nil {
		col.OnSample(func(int64) { s.gov.step() })
	}
	s.collector = col
	s.CoreClk.Register(col)
	s.CoreClk.OnBarrier(col.Fold)
	return nil
}

// flushTelemetry emits the final batch, if a collector is attached.
func (s *System) flushTelemetry() {
	if s.collector != nil {
		s.collector.Flush(s.CoreClk.Now())
	}
}

// ThrottleLevel reports the governor's current duty-cycle level (0 when
// uncapped or never throttled).
func (s *System) ThrottleLevel() int {
	if s.gov == nil {
		return 0
	}
	return s.gov.level
}

// ZoneWatts reports the metered power of the named zone over the last closed
// sample window (static-only before the first window closes).
func (s *System) ZoneWatts(zone string) float64 { return s.meter.Watts(zone) }
