package gpu

import (
	"fmt"

	"dcl1sim/internal/cache"
	"dcl1sim/internal/chaos"
	"dcl1sim/internal/core"
	"dcl1sim/internal/dcl1"
	"dcl1sim/internal/dram"
	"dcl1sim/internal/mem"
	"dcl1sim/internal/metrics"
	"dcl1sim/internal/noc"
	"dcl1sim/internal/power"
	"dcl1sim/internal/sim"
	"dcl1sim/internal/workload"
)

const pumpRate = 2

// Bounds of the multi-GPU assembly (DESIGN.md §16).
const (
	// MaxModules caps the module count of one machine.
	MaxModules = 8
	// MaxLinkGBps caps the inter-module link bandwidth per direction.
	MaxLinkGBps = 1024
	// MaxLinkLat caps the link switch latency in link cycles.
	MaxLinkLat = 4096
	// LinkClkMHz is the inter-module link clock: 1 GHz, so a link's GB/s
	// rating equals its flit width in bytes per link cycle.
	LinkClkMHz = 1000
)

// System is one fully wired machine executing one application.
type System struct {
	Cfg Config
	D   Design
	App workload.Source

	Eng     *sim.Engine
	CoreClk *sim.Clock
	Noc1Clk *sim.Clock
	Noc2Clk *sim.Clock
	MemClk  *sim.Clock

	Cores   []*core.Core
	Nodes   []*dcl1.Node // private L1 nodes (Baseline/CDXBar) or DC-L1 nodes
	L2      []*cache.Ctrl
	l2in    []*sim.Port[*mem.Access]
	Drams   []*dram.Channel
	Noc1Req []*noc.Crossbar
	Noc1Rep []*noc.Crossbar
	Noc2Req []*noc.Crossbar
	Noc2Rep []*noc.Crossbar

	// MeshReq/MeshRep are populated only by the MeshBase design.
	MeshReq *noc.Mesh
	MeshRep *noc.Mesh

	Tracker *cache.Presence
	// stages defer each L1 node's replication-tracker mutations to the core
	// clock's edge barrier (one per node, applied in node order), so tracker
	// state never depends on intra-edge tick order. See cache.PresenceStage.
	stages []*cache.PresenceStage
	Map    dcl1.Mapping
	AMap   mem.AddressMap
	trim   bool

	// Pool recycles Access and Packet values across the whole machine; nil
	// disables pooling (WithoutPool). See DESIGN.md §10 for the ownership
	// contract that makes both modes bit-identical.
	Pool   *mem.Pool
	noPool bool

	// Fault injection (InstallChaos): the normalized spec and the per-
	// component injectors, in installation order.
	chaosSpec *chaos.Spec
	injectors []*chaos.Injector

	// Telemetry. Reg and meter are built unconditionally at the end of
	// NewSystem (registration is closures over existing counters, so an
	// unobserved registry is free); collector and gov exist only after
	// InstallTelemetry.
	Reg       *metrics.Registry
	meter     *power.Meter
	collector *metrics.Collector
	gov       *governor

	// Multi-GPU module placement (zero for a single-module machine, the
	// default): this module's index, the machine's module count and the
	// component-name prefix ("m<i>.").
	module  int
	modules int
	prefix  string

	// Inter-module link ports, one per DRAM channel (built only when modules
	// >= 2; see wireMemSide). linkMissOut carries remote-homed L2 misses
	// toward the link; linkReqIn receives remote modules' requests for local
	// DRAM; linkRepOut carries local DRAM fills bound for a remote module;
	// linkFillIn receives fills coming back from remote DRAM.
	linkMissOut []*sim.Port[*mem.Access]
	linkReqIn   []*sim.Port[*mem.Access]
	linkRepOut  []*sim.Port[*mem.Access]
	linkFillIn  []*sim.Port[*mem.Access]
}

// fabric places a System inside a multi-GPU Machine: the shared engine,
// clocks, pool, and metric registry, plus the module's coordinates. Only
// NewMachine constructs one.
type fabric struct {
	eng     *sim.Engine
	coreClk *sim.Clock
	noc1Clk *sim.Clock
	noc2Clk *sim.Clock
	memClk  *sim.Clock
	pool    *mem.Pool
	reg     *metrics.Registry
	module  int
	modules int
}

// withFabric builds the System as module f.module of a multi-GPU machine.
func withFabric(f *fabric) BuildOption {
	return func(s *System) {
		s.Eng = f.eng
		s.CoreClk, s.Noc1Clk, s.Noc2Clk, s.MemClk = f.coreClk, f.noc1Clk, f.noc2Clk, f.memClk
		s.Pool = f.pool
		s.Reg = f.reg
		s.module, s.modules = f.module, f.modules
		s.prefix = fmt.Sprintf("m%d.", f.module)
	}
}

// cname prefixes a component name with the module namespace ("m0.", "m1.",
// ...) in a multi-GPU machine; single-module names are unchanged.
func (s *System) cname(name string) string { return s.prefix + name }

// BuildOption adjusts how NewSystem assembles a machine.
type BuildOption func(*System)

// WithoutPool builds the system with pooling disabled: every Access/Packet
// is allocated fresh and dropped to the garbage collector. Exists for the
// pooled-vs-unpooled equivalence tests; simulated results are identical.
func WithoutPool() BuildOption { return func(s *System) { s.noPool = true } }

// nocClockMHz derives the two NoC clock frequencies of a design (the boost
// variants double one or both). Shared by NewSystem and NewMachine so every
// module of a multi-GPU machine agrees with the single-module build.
func nocClockMHz(cfg Config, d Design) (noc1MHz, noc2MHz int64) {
	noc1MHz = cfg.NoCMHz
	if d.Boost1 || d.CDXBoostS1 || d.CDXBoostAll || (d.Kind == Baseline && d.NoCBoost) {
		noc1MHz *= 2
	}
	noc2MHz = cfg.NoCMHz
	if d.CDXBoostAll || (d.Kind == Baseline && d.NoCBoost) {
		noc2MHz *= 2
	}
	return noc1MHz, noc2MHz
}

// NewSystem builds the machine for design d running app. Multi-GPU designs
// (Modules >= 2) must go through NewMachine, which builds one System per
// module on a shared engine and wires the inter-module link between them.
func NewSystem(cfg Config, d Design, app workload.Source, opts ...BuildOption) *System {
	cfg = cfg.WithDefaults()
	d = d.withDefaults(cfg)
	validate(cfg, d)

	s := &System{
		Cfg:     cfg,
		D:       d,
		App:     app,
		AMap:    cfg.AddressMap(),
		Tracker: cache.NewPresence(),
		trim:    *d.TrimReplies,
	}
	for _, o := range opts {
		o(s)
	}
	if d.Modules >= 2 && s.modules == 0 {
		panic("gpu: designs with Modules >= 2 must be built with NewMachine")
	}
	if s.Eng == nil {
		s.Eng = sim.NewEngine()
	}
	if !s.noPool && s.Pool == nil {
		s.Pool = mem.NewPool()
	}
	if s.modules >= 2 {
		s.AMap.Modules = s.modules
		s.AMap.Module = s.module
		s.AMap.Private = d.PrivateAS
	}

	if s.CoreClk == nil {
		noc1MHz, noc2MHz := nocClockMHz(cfg, d)
		s.CoreClk = s.Eng.NewClock("core", cfg.CoreMHz)
		s.Noc1Clk = s.Eng.NewClock("noc1", noc1MHz)
		s.Noc2Clk = s.Eng.NewClock("noc2", noc2MHz)
		s.MemClk = s.Eng.NewClock("mem", cfg.MemMHz)
	}

	s.buildCores()
	s.buildNodes()
	s.buildL2AndDram()

	switch d.Kind {
	case Baseline, CDXBar:
		s.Map = dcl1.PrivateMap{Cores: cfg.Cores, NodeCount: cfg.Cores}
		s.wireLocalL1()
		if d.Kind == Baseline {
			s.wireBaselineNoC()
		} else {
			s.wireCDXBarNoC()
		}
	case Private:
		s.Map = dcl1.PrivateMap{Cores: cfg.Cores, NodeCount: d.DCL1s}
		s.wireNoC1()
		s.wireNoC2Flat()
	case Shared:
		s.Map = dcl1.SharedMap{NodeCount: d.DCL1s}
		s.wireNoC1()
		s.wireNoC2Flat()
	case Clustered:
		s.Map = dcl1.ClusteredMap{Cores: cfg.Cores, NodeCount: d.DCL1s, Clusters: d.Clusters}
		s.wireNoC1()
		s.wireNoC2Clustered()
	case SingleL1:
		s.Map = dcl1.SharedMap{NodeCount: 1}
		s.wireSingleL1()
	case MeshBase:
		s.Map = dcl1.PrivateMap{Cores: cfg.Cores, NodeCount: cfg.Cores}
		s.wireLocalL1()
		s.wireMeshNoC()
	}
	s.wireMemSide()
	s.registerMetrics()
	return s
}

func validate(cfg Config, d Design) {
	if err := d.Validate(cfg); err != nil {
		panic(err.Error())
	}
}

// Validate reports whether the design's topology is buildable on the given
// machine configuration. Both the design and the configuration are checked
// after defaults are applied, matching what NewSystem would construct.
func (d Design) Validate(cfg Config) error {
	cfg = cfg.WithDefaults()
	d = d.withDefaults(cfg)
	switch d.Kind {
	case Private, Shared:
		if cfg.Cores%d.DCL1s != 0 && d.Kind == Private {
			return fmt.Errorf("gpu: %d cores not divisible by %d DC-L1 nodes", cfg.Cores, d.DCL1s)
		}
	case Clustered:
		if d.DCL1s%d.Clusters != 0 || cfg.Cores%d.Clusters != 0 {
			return fmt.Errorf("gpu: clusters (%d) must divide cores (%d) and DC-L1 nodes (%d)",
				d.Clusters, cfg.Cores, d.DCL1s)
		}
		m := d.DCL1s / d.Clusters
		if cfg.L2Slices%m != 0 {
			return fmt.Errorf("gpu: DC-L1s per cluster (%d) must divide L2 slices (%d)",
				m, cfg.L2Slices)
		}
	case CDXBar:
		if cfg.Cores%d.CDXGroups != 0 || cfg.L2Slices%d.CDXMid != 0 {
			return fmt.Errorf("gpu: CDXBar groups (%d) / mid links (%d) must divide cores (%d) / L2 slices (%d)",
				d.CDXGroups, d.CDXMid, cfg.Cores, cfg.L2Slices)
		}
	}
	if d.Modules < 0 || d.Modules > MaxModules {
		return fmt.Errorf("gpu: module count %d outside [0, %d]", d.Modules, MaxModules)
	}
	if d.Modules < 2 {
		if d.LinkGBps != 0 || d.LinkLat != 0 || d.PrivateAS {
			return fmt.Errorf("gpu: inter-module link parameters require Modules >= 2")
		}
		return nil
	}
	if d.LinkGBps > MaxLinkGBps {
		return fmt.Errorf("gpu: link bandwidth %d GB/s exceeds %d", d.LinkGBps, MaxLinkGBps)
	}
	if d.LinkLat > MaxLinkLat {
		return fmt.Errorf("gpu: link latency %d exceeds %d cycles", d.LinkLat, MaxLinkLat)
	}
	return nil
}

// nodeCount returns the number of L1/DC-L1 nodes in the design.
func (s *System) nodeCount() int {
	switch s.D.Kind {
	case Baseline, CDXBar, MeshBase:
		return s.Cfg.Cores
	case SingleL1:
		return 1
	default:
		return s.D.DCL1s
	}
}

func (s *System) buildCores() {
	cfg := s.Cfg
	for c := 0; c < cfg.Cores; c++ {
		co := core.New(core.Params{
			ID:             c,
			MaxOutstanding: cfg.MaxOutstanding,
			OutCap:         8,
			InCap:          16,
			WavesPerCTA:    cfg.WavesPerCTA,
			GTO:            cfg.GTO,
			Pool:           s.Pool,
		})
		waves := s.App.WavesFor(c)
		for w := 0; w < waves; w++ {
			co.AddWave(s.App.Program(cfg.Cores, c, w, cfg.Sched, cfg.Seed))
		}
		s.Cores = append(s.Cores, co)
		s.CoreClk.Register(co)
		// The core is the single producer of its Out port and ticks on the
		// core clock. (In is attached by the design-specific wiring — its
		// producer differs per topology.)
		co.Out.Attach(s.CoreClk)
	}
}

// l1NodeParams derives the cache geometry of one L1/DC-L1 node.
func (s *System) l1NodeParams(id int) dcl1.Params {
	cfg, d := s.Cfg, s.D
	nodes := s.nodeCount()
	totalLines := cfg.Cores * cfg.L1KB * 1024 / mem.LineBytes * d.L1CapacityScale
	perNodeLines := totalLines
	if d.Kind == Baseline || d.Kind == CDXBar || d.Kind == MeshBase {
		perNodeLines = cfg.L1KB * 1024 / mem.LineBytes * d.L1CapacityScale
	} else {
		perNodeLines = totalLines / nodes
	}
	sets := perNodeLines / cfg.L1Ways
	if sets < 1 {
		sets = 1
	}
	bankBytes := perNodeLines * mem.LineBytes
	lat := sim.Cycle(power.CacheAccessLatency(bankBytes, int(cfg.L1Lat)))
	ports := 1
	qcap := 4
	pump := pumpRate
	mshrs := cfg.L1MSHRs
	ctrlCap := 8
	if d.Kind == SingleL1 {
		// Hypothetical study: total capacity, bandwidth, and MSHR budget of
		// all 80 private L1s concentrated in one node.
		ports = cfg.Cores
		qcap = 4 * cfg.Cores
		pump = 2 * cfg.Cores
		lat = cfg.L1Lat
		mshrs = cfg.L1MSHRs * cfg.Cores
		ctrlCap = 4 * cfg.Cores
	}
	// A home-sliced DC-L1 only caches every homeMod-th line; the sequential
	// prefetcher must stride accordingly.
	homeMod := 1
	switch d.Kind {
	case Shared:
		homeMod = d.DCL1s
	case Clustered:
		homeMod = d.DCL1s / d.Clusters
	}
	policy := cache.WriteEvict
	if d.L1WriteBack {
		policy = cache.WriteBack
	}
	return dcl1.Params{
		ID: id,
		Cache: cache.Params{
			Name:           s.cname(fmt.Sprintf("l1-%d", id)),
			Sets:           sets,
			Ways:           cfg.L1Ways,
			HitLatency:     lat,
			MSHRs:          mshrs,
			MaxMerge:       cfg.L1MaxMerge,
			Ports:          ports,
			Policy:         policy,
			Perfect:        d.PerfectL1,
			PrefetchNext:   d.PrefetchNext,
			PrefetchStride: homeMod,
			InCap:          ctrlCap,
			OutCap:         ctrlCap,
			MissCap:        ctrlCap,
			FillCap:        ctrlCap,
			Pool:           s.Pool,
		},
		QueueCap:     qcap,
		PumpPerCycle: pump,
	}
}

func (s *System) buildNodes() {
	n := s.nodeCount()
	for i := 0; i < n; i++ {
		st := cache.NewPresenceStage(s.Tracker)
		s.stages = append(s.stages, st)
		nd := dcl1.New(s.l1NodeParams(i), st)
		s.Nodes = append(s.Nodes, nd)
		s.CoreClk.Register(nd)
		// The node produces Q2 (replies toward cores) and Q3 (misses toward
		// NoC#2) on the core clock. Q1/Q4 are attached by the wiring that
		// creates their producers. The node's internal Ctrl queues stay in
		// immediate mode: a single component owns both ends.
		nd.Q2.Attach(s.CoreClk)
		nd.Q3.Attach(s.CoreClk)
	}
	// Apply every node's staged replication-tracker ops at the core clock's
	// edge barrier, in node order — the one piece of state shared across
	// nodes, so no node observes another's same-edge updates.
	s.CoreClk.OnBarrier(func() {
		for _, st := range s.stages {
			st.Apply()
		}
	})
}

func (s *System) buildL2AndDram() {
	cfg := s.Cfg
	lines := cfg.L2KB * 1024 / mem.LineBytes
	sets := lines / cfg.L2Ways
	for i := 0; i < cfg.L2Slices; i++ {
		l2 := cache.New(cache.Params{
			Name:       s.cname(fmt.Sprintf("l2-%d", i)),
			Sets:       sets,
			Ways:       cfg.L2Ways,
			HitLatency: cfg.L2Lat,
			MSHRs:      cfg.L2MSHRs,
			MaxMerge:   16,
			Ports:      1,
			Policy:     cache.WriteBack,
			InCap:      8,
			OutCap:     8,
			MissCap:    8,
			FillCap:    8,
			Pool:       s.Pool,
		}, 1000+i, nil)
		s.L2 = append(s.L2, l2)
		in := sim.NewPort[*mem.Access](8)
		s.l2in = append(s.l2in, in)
		s.Noc2Clk.Register(l2)
		// Port producers, identical across designs: the L2 controller emits
		// Out/MissOut on the NoC#2 clock; l2in is fed by the request network
		// (or the SingleL1 miss pump), always on the NoC#2 clock; L2.In by
		// the l2in pump (NoC#2 clock); FillIn by the DRAM reply pump (memory
		// clock).
		l2.Out.Attach(s.Noc2Clk)
		l2.MissOut.Attach(s.Noc2Clk)
		l2.In.Attach(s.Noc2Clk)
		l2.FillIn.Attach(s.MemClk)
		in.Attach(s.Noc2Clk)
	}
	for ch := 0; ch < cfg.Channels; ch++ {
		dc := dram.New(dram.Params{
			Name:  s.cname(fmt.Sprintf("mc-%d", ch)),
			Banks: cfg.DramBanks,
			Map:   s.AMap,
		})
		s.Drams = append(s.Drams, dc)
		s.MemClk.Register(dc)
		dc.Out.Attach(s.MemClk)
	}
}

// queuePump moves accesses from a source queue through an injection function
// at a bounded rate. It implements sim.Sleeper — an empty source queue means
// a tick would do nothing — so the engine can skip it; it keeps no per-cycle
// counters, so no SkipIdle compensation is needed.
type queuePump struct {
	q    *sim.Port[*mem.Access]
	rate int
	try  func(a *mem.Access) bool
}

func (p *queuePump) Tick(sim.Cycle) {
	for i := 0; i < p.rate; i++ {
		a, ok := p.q.Peek()
		if !ok {
			return
		}
		if !p.try(a) {
			return
		}
		p.q.Pop()
	}
}

// NextWorkCycle implements sim.Sleeper.
func (p *queuePump) NextWorkCycle(now sim.Cycle) sim.Cycle {
	if p.q.Empty() {
		return sim.WakeNever
	}
	return now
}

// pump returns a Ticker moving accesses from q through try, up to rate/cycle.
func pump(q *sim.Port[*mem.Access], rate int, try func(a *mem.Access) bool) sim.Ticker {
	return &queuePump{q: q, rate: rate, try: try}
}

// multiPump drains several source ports into one destination in fixed source
// order, up to rate accesses per source per cycle. It exists because an
// attached port admits exactly one producer component: where many logical
// sources feed one queue (all cores into the SingleL1 node, all of a DRAM
// channel's slices into its In port), the fan-in must be a single ticker so
// the order values enter the destination's staging buffer never depends on
// tick order. The
// optional prep hook runs before try with the source index, letting a fan-in
// treat sources differently (the multi-GPU DRAM fan-in stamps locally
// originated misses with the module id while link arrivals keep theirs).
type multiPump struct {
	srcs []*sim.Port[*mem.Access]
	rate int
	try  func(a *mem.Access) bool
	prep func(src int, a *mem.Access)
}

func (p *multiPump) Tick(sim.Cycle) {
	for si, q := range p.srcs {
		for i := 0; i < p.rate; i++ {
			a, ok := q.Peek()
			if !ok {
				break
			}
			if p.prep != nil {
				p.prep(si, a)
			}
			if !p.try(a) {
				break
			}
			q.Pop()
		}
	}
}

// NextWorkCycle implements sim.Sleeper.
func (p *multiPump) NextWorkCycle(now sim.Cycle) sim.Cycle {
	for _, q := range p.srcs {
		if !q.Empty() {
			return now
		}
	}
	return sim.WakeNever
}

// sink delivers a packet's access into q and retires the packet shell. Every
// crossbar/mesh packet is consumed at a sink (or rejected at inject), so the
// sink is the single retirement point that keeps packet pooling leak-free.
func (s *System) sink(q *sim.Port[*mem.Access]) noc.Endpoint {
	return noc.EndpointFunc(func(p *mem.Packet) bool {
		if !q.Push(p.Acc) {
			return false
		}
		s.Pool.PutPacket(p)
		return true
	})
}

// packetNet is any network accepting packet injections (Crossbar or Mesh).
type packetNet interface {
	Inject(*mem.Packet) bool
}

// inject wraps a in a pooled packet and offers it to x. A refused injection
// (backpressure) returns the packet to the pool immediately, so the caller's
// retry next cycle allocates nothing either.
func (s *System) inject(x packetNet, a *mem.Access, src, dst, flits int) bool {
	p := s.Pool.GetPacket()
	p.Acc, p.Src, p.Dst, p.Flits = a, src, dst, flits
	if !x.Inject(p) {
		s.Pool.PutPacket(p)
		return false
	}
	return true
}

func (s *System) xbar(name string, ins, outs int) *noc.Crossbar {
	return noc.New(noc.Params{
		Name: s.cname(name), Ins: ins, Outs: outs,
		LinkBytes: s.D.FlitBytes, RouterLat: 2,
	})
}

// wireLocalL1 connects each core to its colocated private L1 node
// (Baseline and CDXBar): core↔node queues move at core clock.
func (s *System) wireLocalL1() {
	for c := 0; c < s.Cfg.Cores; c++ {
		co, nd := s.Cores[c], s.Nodes[c]
		s.CoreClk.Register(pump(co.Out, pumpRate, nd.Q1.Push))
		s.CoreClk.Register(pump(nd.Q2, pumpRate, co.In.Push))
		nd.Q1.Attach(s.CoreClk)
		co.In.Attach(s.CoreClk)
	}
}

// wireBaselineNoC builds the 80×32 request and 32×80 reply crossbars between
// the L1 nodes and the L2 slices.
func (s *System) wireBaselineNoC() {
	cfg := s.Cfg
	req := s.xbar("noc-req", cfg.Cores, cfg.L2Slices)
	rep := s.xbar("noc-rep", cfg.L2Slices, cfg.Cores)
	s.Noc2Req = []*noc.Crossbar{req}
	s.Noc2Rep = []*noc.Crossbar{rep}
	s.Noc2Clk.Register(req)
	s.Noc2Clk.Register(rep)
	req.AttachPorts(s.Noc2Clk)
	rep.AttachPorts(s.Noc2Clk)
	for c := 0; c < cfg.Cores; c++ {
		c := c
		nd := s.Nodes[c]
		s.Noc2Clk.Register(pump(nd.Q3, pumpRate, func(a *mem.Access) bool {
			return s.inject(req, a, c, s.AMap.L2Slice(a.Line), reqFlits(a, s.D.FlitBytes, true))
		}))
		rep.SetEndpoint(c, s.sink(nd.Q4))
		nd.Q4.Attach(s.Noc2Clk)
	}
	for i := 0; i < cfg.L2Slices; i++ {
		req.SetEndpoint(i, s.sink(s.l2in[i]))
	}
	s.wireL2Replies(func(a *mem.Access, slice int) bool {
		dst := a.Core
		if a.Core == cache.PrefetchCore {
			dst = a.Node
		}
		return s.inject(rep, a, slice, dst, replyFlits(a, s.D.FlitBytes, false, false))
	})
}

// wireNoC1 builds NoC#1 between lite cores and DC-L1 nodes for the Private,
// Shared, and Clustered designs.
func (s *System) wireNoC1() {
	cfg, d := s.Cfg, s.D
	switch d.Kind {
	case Private:
		per := cfg.Cores / d.DCL1s
		for n := 0; n < d.DCL1s; n++ {
			n := n
			req := s.xbar(fmt.Sprintf("noc1-req-%d", n), per, 1)
			rep := s.xbar(fmt.Sprintf("noc1-rep-%d", n), 1, per)
			s.Noc1Req = append(s.Noc1Req, req)
			s.Noc1Rep = append(s.Noc1Rep, rep)
			s.Noc1Clk.Register(req)
			s.Noc1Clk.Register(rep)
			req.AttachPorts(s.Noc1Clk)
			rep.AttachPorts(s.Noc1Clk)
			req.SetEndpoint(0, s.sink(s.Nodes[n].Q1))
			s.Nodes[n].Q1.Attach(s.Noc1Clk)
		}
		for c := 0; c < cfg.Cores; c++ {
			c := c
			n := c / per
			req := s.Noc1Req[n]
			src := c % per
			s.Noc1Clk.Register(pump(s.Cores[c].Out, pumpRate, func(a *mem.Access) bool {
				return s.inject(req, a, src, 0, reqFlits(a, d.FlitBytes, false))
			}))
			s.Noc1Rep[n].SetEndpoint(src, s.sink(s.Cores[c].In))
			s.Cores[c].In.Attach(s.Noc1Clk)
		}
		for n := 0; n < d.DCL1s; n++ {
			n := n
			rep := s.Noc1Rep[n]
			s.Noc1Clk.Register(pump(s.Nodes[n].Q2, pumpRate, func(a *mem.Access) bool {
				return s.inject(rep, a, 0, a.Core%per, replyFlits(a, d.FlitBytes, true, s.trim))
			}))
		}
	case Shared:
		req := s.xbar("noc1-req", cfg.Cores, d.DCL1s)
		rep := s.xbar("noc1-rep", d.DCL1s, cfg.Cores)
		s.Noc1Req = []*noc.Crossbar{req}
		s.Noc1Rep = []*noc.Crossbar{rep}
		s.Noc1Clk.Register(req)
		s.Noc1Clk.Register(rep)
		req.AttachPorts(s.Noc1Clk)
		rep.AttachPorts(s.Noc1Clk)
		for c := 0; c < cfg.Cores; c++ {
			c := c
			s.Noc1Clk.Register(pump(s.Cores[c].Out, pumpRate, func(a *mem.Access) bool {
				return s.inject(req, a, c, s.Map.Home(c, a.Line), reqFlits(a, d.FlitBytes, false))
			}))
			rep.SetEndpoint(c, s.sink(s.Cores[c].In))
			s.Cores[c].In.Attach(s.Noc1Clk)
		}
		for n := 0; n < d.DCL1s; n++ {
			n := n
			req.SetEndpoint(n, s.sink(s.Nodes[n].Q1))
			s.Nodes[n].Q1.Attach(s.Noc1Clk)
			s.Noc1Clk.Register(pump(s.Nodes[n].Q2, pumpRate, func(a *mem.Access) bool {
				return s.inject(rep, a, n, a.Core, replyFlits(a, d.FlitBytes, true, s.trim))
			}))
		}
	case Clustered:
		z := d.Clusters
		m := d.DCL1s / z
		coresPer := cfg.Cores / z
		for cl := 0; cl < z; cl++ {
			cl := cl
			req := s.xbar(fmt.Sprintf("noc1-req-%d", cl), coresPer, m)
			rep := s.xbar(fmt.Sprintf("noc1-rep-%d", cl), m, coresPer)
			s.Noc1Req = append(s.Noc1Req, req)
			s.Noc1Rep = append(s.Noc1Rep, rep)
			s.Noc1Clk.Register(req)
			s.Noc1Clk.Register(rep)
			req.AttachPorts(s.Noc1Clk)
			rep.AttachPorts(s.Noc1Clk)
			for j := 0; j < m; j++ {
				req.SetEndpoint(j, s.sink(s.Nodes[cl*m+j].Q1))
				s.Nodes[cl*m+j].Q1.Attach(s.Noc1Clk)
			}
		}
		for c := 0; c < cfg.Cores; c++ {
			c := c
			cl := c / coresPer
			req := s.Noc1Req[cl]
			s.Noc1Clk.Register(pump(s.Cores[c].Out, pumpRate, func(a *mem.Access) bool {
				local := s.Map.Home(c, a.Line) - cl*m
				return s.inject(req, a, c%coresPer, local, reqFlits(a, d.FlitBytes, false))
			}))
			s.Noc1Rep[cl].SetEndpoint(c%coresPer, s.sink(s.Cores[c].In))
			s.Cores[c].In.Attach(s.Noc1Clk)
		}
		for n := 0; n < d.DCL1s; n++ {
			n := n
			cl := n / m
			rep := s.Noc1Rep[cl]
			s.Noc1Clk.Register(pump(s.Nodes[n].Q2, pumpRate, func(a *mem.Access) bool {
				return s.inject(rep, a, n%m, a.Core%coresPer, replyFlits(a, d.FlitBytes, true, s.trim))
			}))
		}
	}
}

// wireSingleL1 connects all cores directly to one aggregated L1 node and the
// node directly to the L2 slices (Section II-C hypothetical: total L1
// capacity AND bandwidth preserved, no NoC contention modeled — the study
// isolates the capacity effect of eliminating replication).
func (s *System) wireSingleL1() {
	nd := s.Nodes[0]
	// Every core's Out feeds the one node's Q1, so the fan-in must be a
	// single composite pump: an attached port has exactly one producer.
	outs := make([]*sim.Port[*mem.Access], s.Cfg.Cores)
	for c, co := range s.Cores {
		outs[c] = co.Out
	}
	s.CoreClk.Register(&multiPump{srcs: outs, rate: pumpRate, try: nd.Q1.Push})
	nd.Q1.Attach(s.CoreClk)
	// Replies demultiplex back to cores by Access.Core.
	s.CoreClk.Register(pump(nd.Q2, 2*s.Cfg.Cores, func(a *mem.Access) bool {
		return s.Cores[a.Core].In.Push(a)
	}))
	for _, co := range s.Cores {
		co.In.Attach(s.CoreClk)
	}
	// Miss path: ideal full-width connection to the L2 slices.
	s.Noc2Clk.Register(pump(nd.Q3, 2*s.Cfg.Cores, func(a *mem.Access) bool {
		return s.l2in[s.AMap.L2Slice(a.Line)].Push(a)
	}))
	// L2 side: per-slice l2in→L2.In pumps, plus one composite pump over all
	// L2 outputs into the node's Q4 (again a single producer), consuming
	// orphan writeback ACKs as wireL2Replies does for the NoC designs.
	l2outs := make([]*sim.Port[*mem.Access], len(s.L2))
	for i := range s.L2 {
		s.Noc2Clk.Register(pump(s.l2in[i], pumpRate, s.L2[i].In.Push))
		l2outs[i] = s.L2[i].Out
	}
	s.Noc2Clk.Register(&multiPump{srcs: l2outs, rate: pumpRate, try: func(a *mem.Access) bool {
		if a.Kind == mem.Store && a.Core == -1 {
			s.Pool.PutAccess(a) // orphan writeback ACK: drop and retire
			return true
		}
		return nd.Q4.Push(a)
	}})
	nd.Q4.Attach(s.Noc2Clk)
}

// wireNoC2Flat builds the single Y×L2 request / L2×Y reply crossbars used by
// Private, Shared, and SingleL1 designs.
func (s *System) wireNoC2Flat() {
	cfg := s.Cfg
	y := s.nodeCount()
	req := s.xbar("noc2-req", y, cfg.L2Slices)
	rep := s.xbar("noc2-rep", cfg.L2Slices, y)
	s.Noc2Req = []*noc.Crossbar{req}
	s.Noc2Rep = []*noc.Crossbar{rep}
	s.Noc2Clk.Register(req)
	s.Noc2Clk.Register(rep)
	req.AttachPorts(s.Noc2Clk)
	rep.AttachPorts(s.Noc2Clk)
	for n := 0; n < y; n++ {
		n := n
		s.Noc2Clk.Register(pump(s.Nodes[n].Q3, pumpRate, func(a *mem.Access) bool {
			return s.inject(req, a, n, s.AMap.L2Slice(a.Line), reqFlits(a, s.D.FlitBytes, true))
		}))
		rep.SetEndpoint(n, s.sink(s.Nodes[n].Q4))
		s.Nodes[n].Q4.Attach(s.Noc2Clk)
	}
	for i := 0; i < cfg.L2Slices; i++ {
		req.SetEndpoint(i, s.sink(s.l2in[i]))
	}
	s.wireL2Replies(func(a *mem.Access, slice int) bool {
		dst := s.Map.Home(a.Core, a.Line)
		if a.Core == cache.PrefetchCore {
			dst = a.Node
		}
		return s.inject(rep, a, slice, dst, replyFlits(a, s.D.FlitBytes, false, false))
	})
}

// wireNoC2Clustered builds the M crossbars of Z×(L2/M) in NoC#2 (Fig 10).
func (s *System) wireNoC2Clustered() {
	cfg, d := s.Cfg, s.D
	z := d.Clusters
	m := d.DCL1s / z
	o := cfg.L2Slices / m
	for j := 0; j < m; j++ {
		j := j
		req := s.xbar(fmt.Sprintf("noc2-req-%d", j), z, o)
		rep := s.xbar(fmt.Sprintf("noc2-rep-%d", j), o, z)
		s.Noc2Req = append(s.Noc2Req, req)
		s.Noc2Rep = append(s.Noc2Rep, rep)
		s.Noc2Clk.Register(req)
		s.Noc2Clk.Register(rep)
		req.AttachPorts(s.Noc2Clk)
		rep.AttachPorts(s.Noc2Clk)
		// Output ports: L2 slices with slice%m == j, indexed by slice/m.
		for k := 0; k < o; k++ {
			req.SetEndpoint(k, s.sink(s.l2in[k*m+j]))
		}
	}
	for n := 0; n < d.DCL1s; n++ {
		n := n
		cl := n / m
		j := n % m
		req := s.Noc2Req[j]
		s.Noc2Clk.Register(pump(s.Nodes[n].Q3, pumpRate, func(a *mem.Access) bool {
			slice := s.AMap.L2Slice(a.Line)
			return s.inject(req, a, cl, slice/m, reqFlits(a, d.FlitBytes, true))
		}))
		s.Noc2Rep[j].SetEndpoint(cl, s.sink(s.Nodes[n].Q4))
		s.Nodes[n].Q4.Attach(s.Noc2Clk)
	}
	cmap := s.Map.(dcl1.ClusteredMap)
	s.wireL2Replies(func(a *mem.Access, slice int) bool {
		j := slice % m
		dst := cmap.Cluster(a.Core)
		if a.Core == cache.PrefetchCore {
			dst = a.Node / m
		}
		return s.inject(s.Noc2Rep[j], a, slice/m, dst, replyFlits(a, d.FlitBytes, false, false))
	})
}

// wireCDXBarNoC builds the hierarchical two-stage crossbar (Fig 19a study):
// stage 1 concentrates groups of cores onto mid links, stage 2 crosses to
// the L2 slices. Private L1s remain in the cores.
func (s *System) wireCDXBarNoC() {
	cfg, d := s.Cfg, s.D
	g := d.CDXGroups
	mid := d.CDXMid
	per := cfg.Cores / g
	o := cfg.L2Slices / mid
	midReq := make([][]*sim.Port[*mem.Access], g)
	midRep := make([][]*sim.Port[*mem.Access], g)
	for i := range midReq {
		midReq[i] = make([]*sim.Port[*mem.Access], mid)
		midRep[i] = make([]*sim.Port[*mem.Access], mid)
		for j := range midReq[i] {
			midReq[i][j] = sim.NewPort[*mem.Access](4)
			midRep[i][j] = sim.NewPort[*mem.Access](4)
		}
	}
	// Stage 1 (per group): per×mid request, mid×per reply. Runs on Noc1Clk
	// so CDXBar+2xNoC1 boosts only this stage.
	var s1req, s1rep []*noc.Crossbar
	for gi := 0; gi < g; gi++ {
		gi := gi
		req := s.xbar(fmt.Sprintf("cdx-s1-req-%d", gi), per, mid)
		rep := s.xbar(fmt.Sprintf("cdx-s1-rep-%d", gi), mid, per)
		s1req = append(s1req, req)
		s1rep = append(s1rep, rep)
		s.Noc1Clk.Register(req)
		s.Noc1Clk.Register(rep)
		req.AttachPorts(s.Noc1Clk)
		rep.AttachPorts(s.Noc1Clk)
		for j := 0; j < mid; j++ {
			req.SetEndpoint(j, s.sink(midReq[gi][j]))
			midReq[gi][j].Attach(s.Noc1Clk)
		}
	}
	s.Noc1Req = s1req
	s.Noc1Rep = s1rep
	// Stage 2: mid crossbars of g×o request, o×g reply, on Noc2Clk.
	var s2req, s2rep []*noc.Crossbar
	for j := 0; j < mid; j++ {
		j := j
		req := s.xbar(fmt.Sprintf("cdx-s2-req-%d", j), g, o)
		rep := s.xbar(fmt.Sprintf("cdx-s2-rep-%d", j), o, g)
		s2req = append(s2req, req)
		s2rep = append(s2rep, rep)
		s.Noc2Clk.Register(req)
		s.Noc2Clk.Register(rep)
		req.AttachPorts(s.Noc2Clk)
		rep.AttachPorts(s.Noc2Clk)
		for k := 0; k < o; k++ {
			req.SetEndpoint(k, s.sink(s.l2in[k*mid+j]))
		}
	}
	s.Noc2Req = s2req
	s.Noc2Rep = s2rep
	// Core L1 nodes inject into stage 1; mid queues pump into stage 2.
	for c := 0; c < cfg.Cores; c++ {
		c := c
		gi := c / per
		nd := s.Nodes[c]
		req := s1req[gi]
		s.Noc1Clk.Register(pump(nd.Q3, pumpRate, func(a *mem.Access) bool {
			slice := s.AMap.L2Slice(a.Line)
			return s.inject(req, a, c%per, slice%mid, reqFlits(a, d.FlitBytes, true))
		}))
		s1rep[gi].SetEndpoint(c%per, s.sink(nd.Q4))
		nd.Q4.Attach(s.Noc1Clk)
	}
	for gi := 0; gi < g; gi++ {
		gi := gi
		for j := 0; j < mid; j++ {
			j := j
			req2 := s2req[j]
			s.Noc2Clk.Register(pump(midReq[gi][j], pumpRate, func(a *mem.Access) bool {
				slice := s.AMap.L2Slice(a.Line)
				return s.inject(req2, a, gi, slice/mid, reqFlits(a, d.FlitBytes, true))
			}))
			rep1 := s1rep[gi]
			s.Noc1Clk.Register(pump(midRep[gi][j], pumpRate, func(a *mem.Access) bool {
				who := a.Core
				if a.Core == cache.PrefetchCore {
					who = a.Node
				}
				return s.inject(rep1, a, j, who%per, replyFlits(a, d.FlitBytes, false, false))
			}))
		}
	}
	for j := 0; j < mid; j++ {
		j := j
		for gi := 0; gi < g; gi++ {
			s2rep[j].SetEndpoint(gi, s.sink(midRep[gi][j]))
			midRep[gi][j].Attach(s.Noc2Clk)
		}
	}
	s.wireL2Replies(func(a *mem.Access, slice int) bool {
		j := slice % mid
		who := a.Core
		if a.Core == cache.PrefetchCore {
			who = a.Node
		}
		gi := who / per
		return s.inject(s2rep[j], a, slice/mid, gi, replyFlits(a, d.FlitBytes, false, false))
	})
}

// wireL2Replies registers, for every L2 slice: the l2in→L2.In pump and the
// L2.Out→reply-network pump using the supplied injector. ACKs for L1
// writebacks (Core == -1, produced when the write-back L1 ablation evicts
// dirty lines) have no requester and are consumed here.
func (s *System) wireL2Replies(inject func(a *mem.Access, slice int) bool) {
	for i := range s.L2 {
		i := i
		s.Noc2Clk.Register(pump(s.l2in[i], pumpRate, s.L2[i].In.Push))
		s.Noc2Clk.Register(pump(s.L2[i].Out, pumpRate, func(a *mem.Access) bool {
			if a.Kind == mem.Store && a.Core == -1 {
				s.Pool.PutAccess(a) // orphan writeback ACK: drop and retire
				return true
			}
			return inject(a, i)
		}))
	}
}

// wireMemSide connects L2 miss queues to the DRAM channels and routes DRAM
// replies back to the owning slice. In a multi-GPU machine it also builds the
// per-channel link ports and splits both directions by home module: misses
// for remote-homed lines divert to linkMissOut instead of local DRAM, remote
// modules' requests arrive through linkReqIn, local DRAM fills bound for a
// remote origin divert to linkRepOut, and remote fills come home through
// linkFillIn. The single-module paths are untouched.
func (s *System) wireMemSide() {
	multi := s.modules >= 2
	if multi {
		for range s.Drams {
			s.linkMissOut = append(s.linkMissOut, sim.NewPort[*mem.Access](8))
			s.linkReqIn = append(s.linkReqIn, sim.NewPort[*mem.Access](8))
			s.linkRepOut = append(s.linkRepOut, sim.NewPort[*mem.Access](8))
			s.linkFillIn = append(s.linkFillIn, sim.NewPort[*mem.Access](8))
		}
	}
	// Group each channel's slices so the channel's In port has one composite
	// producer draining the mapped MissOuts in slice order.
	missByCh := make([][]*sim.Port[*mem.Access], len(s.Drams))
	for i := range s.L2 {
		ch := s.AMap.Channel(i)
		missByCh[ch] = append(missByCh[ch], s.L2[i].MissOut)
	}
	for ch, dc := range s.Drams {
		if !multi {
			s.Noc2Clk.Register(&multiPump{srcs: missByCh[ch], rate: pumpRate, try: dc.In.Push})
			dc.In.Attach(s.Noc2Clk)
			continue
		}
		ch, dc := ch, dc
		// Local slices first (in slice order, as in the single-module build),
		// then the link ingress; every locally originated miss is stamped with
		// the module so its fill can find the way home.
		nLocal := len(missByCh[ch])
		srcs := append(append([]*sim.Port[*mem.Access]{}, missByCh[ch]...), s.linkReqIn[ch])
		s.Noc2Clk.Register(&multiPump{
			srcs: srcs,
			rate: pumpRate,
			prep: func(si int, a *mem.Access) {
				if si < nLocal {
					a.Module = s.module
				}
			},
			try: func(a *mem.Access) bool {
				if s.AMap.Local(a.Line) {
					return dc.In.Push(a)
				}
				return s.linkMissOut[ch].Push(a)
			},
		})
		dc.In.Attach(s.Noc2Clk)
		s.linkMissOut[ch].Attach(s.Noc2Clk)
	}
	for ch, dc := range s.Drams {
		dc := dc
		if !multi {
			s.MemClk.Register(pump(dc.Out, pumpRate, func(a *mem.Access) bool {
				if a.Kind == mem.Store && a.Core == -1 {
					s.Pool.PutAccess(a) // orphan writeback ACK: drop and retire
					return true
				}
				return s.L2[s.AMap.L2Slice(a.Line)].FillIn.Push(a)
			}))
			continue
		}
		ch := ch
		// DRAM output first, then fills arriving over the link; orphan
		// writeback ACKs retire at the home module (nothing waits for them),
		// remote-origin fills divert to the link egress.
		s.MemClk.Register(&multiPump{
			srcs: []*sim.Port[*mem.Access]{dc.Out, s.linkFillIn[ch]},
			rate: pumpRate,
			try: func(a *mem.Access) bool {
				if a.Kind == mem.Store && a.Core == -1 {
					s.Pool.PutAccess(a) // orphan writeback ACK: drop and retire
					return true
				}
				if a.Module != s.module {
					return s.linkRepOut[ch].Push(a)
				}
				return s.L2[s.AMap.L2Slice(a.Line)].FillIn.Push(a)
			},
		})
		s.linkRepOut[ch].Attach(s.MemClk)
	}
}
