package sim

import (
	"fmt"
	"testing"
)

// TestPortImmediateMode: an unattached port is a plain queue — pushes are
// visible to Pop/Len at once, so standalone component tests keep working.
func TestPortImmediateMode(t *testing.T) {
	p := NewPort[int](2)
	if !p.Push(1) || !p.Push(2) {
		t.Fatal("pushes into empty port refused")
	}
	if p.Push(3) {
		t.Error("push into full immediate port accepted")
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d, want 2", p.Len())
	}
	if v, ok := p.Pop(); !ok || v != 1 {
		t.Errorf("Pop = %d,%v, want 1,true", v, ok)
	}
}

// TestPortTwoPhaseVisibility: once attached, a push stages until the clock's
// edge barrier; the consumer sees it only after commit.
func TestPortTwoPhaseVisibility(t *testing.T) {
	e := NewEngine()
	c := e.NewClock("c", 1000)
	p := NewPort[int](4)
	p.Attach(c)
	if !p.Push(7) {
		t.Fatal("staged push refused")
	}
	if p.Len() != 0 {
		t.Errorf("Len before commit = %d, want 0 (value staged)", p.Len())
	}
	if p.StagedLen() != 1 {
		t.Errorf("StagedLen = %d, want 1", p.StagedLen())
	}
	c.Register(TickFunc(func(Cycle) {}))
	e.RunUntil(c, 1) // one edge: commit runs at its barrier
	if p.Len() != 1 {
		t.Errorf("Len after edge = %d, want 1", p.Len())
	}
	if v, ok := p.Pop(); !ok || v != 7 {
		t.Errorf("Pop = %d,%v, want 7,true", v, ok)
	}
}

// TestPortTwoPhaseCapacity: capacity gates admission against the committed
// snapshot plus already-staged values, so a producer can never stage more
// than the queue can absorb at the barrier — the commit-overflow panic is
// unreachable through the public API.
func TestPortTwoPhaseCapacity(t *testing.T) {
	e := NewEngine()
	c := e.NewClock("c", 1000)
	p := NewPort[int](2)
	p.Attach(c)
	if !p.Push(1) || !p.Push(2) {
		t.Fatal("staged pushes refused below capacity")
	}
	if p.Push(3) {
		t.Error("staged push beyond capacity accepted")
	}
	if !p.Full() {
		t.Error("Full = false with capacity worth of staged values")
	}
	if p.Space() != 0 {
		t.Errorf("Space = %d, want 0", p.Space())
	}
}

// TestPortDoubleAttachPanics pins the single-producer ownership contract's
// guard rail.
func TestPortDoubleAttachPanics(t *testing.T) {
	e := NewEngine()
	c := e.NewClock("c", 1000)
	p := NewPort[int](1)
	p.Attach(c)
	defer func() {
		if recover() == nil {
			t.Error("second Attach did not panic")
		}
	}()
	p.Attach(c)
}

// registerAll registers ticks on c in slice order, or in reverse order.
func registerAll(c *Clock, ticks []TickFunc, reverse bool) {
	for k := range ticks {
		if reverse {
			k = len(ticks) - 1 - k
		}
		c.Register(ticks[k])
	}
}

// ringRun runs a ring of components over attached ports — each pops from its
// inbound port and pushes a transformed value to its outbound port — with the
// components registered in forward or reverse order, and returns the final
// per-component state. Every component is both producer and consumer, so a
// value that became visible within the edge it was pushed in would be popped
// one edge early in one registration order and not the other.
func ringRun(reverse bool) []int {
	const nodes = 12
	e := NewEngine()
	c := e.NewClock("c", 1000)
	ports := make([]*Port[int], nodes)
	for i := range ports {
		ports[i] = NewPort[int](4)
		ports[i].Attach(c)
	}
	state := make([]int, nodes)
	ticks := make([]TickFunc, nodes)
	for i := range ticks {
		in, out := ports[i], ports[(i+1)%nodes]
		ticks[i] = func(cy Cycle) {
			if v, ok := in.Pop(); ok {
				state[i] += v
				out.Push(v + i)
			}
			if cy%Cycle(i+1) == 0 {
				out.Push(i)
			}
		}
	}
	registerAll(c, ticks, reverse)
	e.RunUntil(c, 500)
	return state
}

// twoClockRun crosses two clock domains through attached ports, with each
// clock's components registered in forward or reverse order, and returns the
// event log of values arriving on either side, stamped with the cycle they
// arrived in. Each side also relays through a port local to its own clock,
// producer and consumer on the same clock, so a push visible within its own
// edge would shift arrival cycles in one registration order only.
func twoClockRun(reverse bool) string {
	e := NewEngine()
	fastClk := e.NewClock("fast", 1400)
	slowClk := e.NewClock("slow", 924)
	fastLocal := NewPort[int](3)
	fastLocal.Attach(fastClk)
	fwd := NewPort[int](3)
	fwd.Attach(fastClk)
	slowLocal := NewPort[int](3)
	slowLocal.Attach(slowClk)
	back := NewPort[int](3)
	back.Attach(slowClk)
	var log string
	seq := 0
	fastTicks := make([]TickFunc, 8)
	slowTicks := make([]TickFunc, 8)
	for i := range fastTicks {
		fastTicks[i] = func(Cycle) {}
		slowTicks[i] = func(Cycle) {}
	}
	fastTicks[0] = func(Cycle) {
		seq++
		fastLocal.Push(seq)
	}
	fastTicks[5] = func(Cycle) {
		if v, ok := fastLocal.Pop(); ok {
			fwd.Push(v)
		}
	}
	fastTicks[7] = func(cy Cycle) {
		if v, ok := back.Pop(); ok {
			log += fmt.Sprintf("b%d@%d,", v, cy)
		}
	}
	slowTicks[3] = func(cy Cycle) {
		if v, ok := fwd.Pop(); ok {
			log += fmt.Sprintf("f%d@%d,", v, cy)
			slowLocal.Push(v * 10)
		}
	}
	slowTicks[6] = func(Cycle) {
		if v, ok := slowLocal.Pop(); ok {
			back.Push(v)
		}
	}
	registerAll(fastClk, fastTicks, reverse)
	registerAll(slowClk, slowTicks, reverse)
	e.RunUntil(fastClk, 300)
	return log
}

// TestPortRegistrationOrderIndependence is the oracle for the two-phase port
// contract on one clock: the same producers and consumers, registered in
// forward and then in reverse order, must give identical results. It fails if
// Port.Push bypasses staging, because a push would then be visible to a
// consumer ticking later in the same edge — and which side of the producer a
// consumer ticks on is exactly what reversing the order flips.
func TestPortRegistrationOrderIndependence(t *testing.T) {
	if fwd, rev := ringRun(false), ringRun(true); fmt.Sprint(fwd) != fmt.Sprint(rev) {
		t.Errorf("reverse registration diverged\nforward: %v\nreverse: %v", fwd, rev)
	}
}

// TestPortRegistrationOrderIndependenceMultiClock is the same oracle across
// two clock domains. It too fails if Port.Push bypasses staging.
func TestPortRegistrationOrderIndependenceMultiClock(t *testing.T) {
	fwd, rev := twoClockRun(false), twoClockRun(true)
	if fwd == "" {
		t.Fatal("no traffic crossed the ports")
	}
	if fwd != rev {
		t.Errorf("reverse registration diverged\nforward: %s\nreverse: %s", fwd, rev)
	}
}
