package gpu

import (
	"fmt"

	"dcl1sim/internal/chaos"
)

// InstallChaos arms deterministic fault injection on every component of the
// built system. Each component receives its own injector stream keyed by
// (spec.Seed, subsystem kind, component index), so the fault schedule is a
// pure function of the spec and independent of tick mode and wall-clock — see the chaos package doc. Must be called before the first
// cycle runs; calling it twice or with an invalid spec returns an error.
// A nil spec is a no-op.
//
// The MeshBase mesh is not perturbed (its routers don't share the crossbar's
// grant/jam surface); mesh designs still get core, cache, and DRAM faults.
func (s *System) InstallChaos(spec *chaos.Spec) error {
	if spec == nil {
		return nil
	}
	if s.chaosSpec != nil {
		return fmt.Errorf("gpu: chaos already installed")
	}
	if s.CoreClk.Now() != 0 {
		return fmt.Errorf("gpu: chaos installed after cycle 0 (now %d)", s.CoreClk.Now())
	}
	norm, err := spec.Normalized()
	if err != nil {
		return err
	}
	s.chaosSpec = norm
	s.armChaos(norm, nil)
	return nil
}

// armChaos installs the per-component injectors. The next map carries the
// per-kind component index across calls: a multi-GPU machine passes one map
// through every module so indices are module-global (module 1's first core is
// KindCore index Cores, not 0) and the fault schedule stays a pure function
// of the machine. A nil map starts every kind at zero.
func (s *System) armChaos(norm *chaos.Spec, next map[chaos.Kind]int) {
	if next == nil {
		next = make(map[chaos.Kind]int)
	}
	add := func(kind chaos.Kind, name string) *chaos.Injector {
		in := chaos.New(norm, kind, next[kind], name)
		next[kind]++
		s.injectors = append(s.injectors, in)
		return in
	}
	for i, c := range s.Cores {
		c.Chaos = add(chaos.KindCore, s.cname(fmt.Sprintf("core-%d", i)))
	}
	for _, n := range s.Nodes {
		n.Ctrl.Chaos = add(chaos.KindL1, n.Ctrl.P.Name)
	}
	for _, l2 := range s.L2 {
		l2.Chaos = add(chaos.KindL2, l2.P.Name)
	}
	for _, x := range s.crossbars() {
		x.Chaos = add(chaos.KindNoC, x.P.Name)
	}
	for _, dc := range s.Drams {
		dc.Chaos = add(chaos.KindDram, dc.P.Name)
	}
}

// ChaosEvents returns the merged recorded fault schedule across all injectors
// (empty unless the spec set Record). Cycles are each component's local
// clock; the canonical rendering is chaos.FormatEvents.
func (s *System) ChaosEvents() []chaos.Event {
	var out []chaos.Event
	for _, in := range s.injectors {
		out = append(out, in.Events()...)
	}
	chaos.SortEvents(out)
	return out
}

// FaultsInjected returns the total fault occurrences across all injectors,
// cumulative since construction (warmup included — the schedule is a property
// of the whole run, not the measurement window).
func (s *System) FaultsInjected() int64 {
	var n int64
	for _, in := range s.injectors {
		n += in.Fired()
	}
	return n
}
