package noc

import (
	"testing"

	"repro/internal/flit"
	"repro/internal/sim"
)

// collector is a minimal LocalPort that injects a fixed list of flits and
// records deliveries.
type collector struct {
	out  []flit.Flit
	got  []flit.Flit
	when []int64
}

func (c *collector) TryPull() (flit.Flit, bool) {
	if len(c.out) == 0 {
		return flit.Flit{}, false
	}
	f := c.out[0]
	c.out = c.out[1:]
	return f, true
}

func (c *collector) Pending() int { return len(c.out) }

func (c *collector) Deliver(f flit.Flit, now int64) {
	c.got = append(c.got, f)
	c.when = append(c.when, now)
}

// mustNeighbor is a test helper for fabrics where the link is known to
// exist (any torus port).
func mustNeighbor(topo Topology, id int, p Port) int {
	nb, ok := topo.Neighbor(id, p)
	if !ok {
		panic("test: no link there")
	}
	return nb
}

func buildNet(t *testing.T, w, h int) (*sim.Engine, *Network, []*collector) {
	t.Helper()
	topo, err := NewTopology(w, h)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	n := NewNetwork(e, topo)
	cols := make([]*collector, topo.NumNodes())
	for i := range cols {
		cols[i] = &collector{}
		n.Attach(i, cols[i])
	}
	return e, n, cols
}

func mkFlit(topo Topology, src, dst int, pkt uint64) flit.Flit {
	dx, dy := topo.Coord(dst)
	f := flit.Flit{
		DstX: uint8(dx), DstY: uint8(dy),
		Type: flit.Message, Sub: flit.SubMsgData,
		Src: uint8(src),
	}
	f.Meta.PacketID = pkt
	return f
}

func TestSingleFlitDelivery(t *testing.T) {
	e, n, cols := buildNet(t, 4, 4)
	src, dst := 0, n.Topo.ID(2, 1)
	cols[src].out = append(cols[src].out, mkFlit(n.Topo, src, dst, 1))
	e.Run(20)
	if len(cols[dst].got) != 1 {
		t.Fatalf("destination got %d flits", len(cols[dst].got))
	}
	// Minimal latency: 3 hops, one cycle per hop (plus injection cycle).
	minHops := n.Topo.Dist(src, dst)
	if lat := cols[dst].when[0]; lat < int64(minHops) {
		t.Errorf("delivered at cycle %d, impossible before %d", lat, minHops)
	}
	if n.Stats.Delivered.Value() != 1 || n.Stats.Injected.Value() != 1 {
		t.Errorf("stats: injected %d delivered %d", n.Stats.Injected.Value(), n.Stats.Delivered.Value())
	}
}

func TestSelfAddressedNearestDelivery(t *testing.T) {
	// A flit to an adjacent node takes exactly: inject (cycle 0, appears
	// on link), arrive and eject next switch step.
	e, n, cols := buildNet(t, 4, 4)
	src := n.Topo.ID(1, 1)
	dst := mustNeighbor(n.Topo, src, East)
	cols[src].out = append(cols[src].out, mkFlit(n.Topo, src, dst, 1))
	e.Run(10)
	if len(cols[dst].got) != 1 {
		t.Fatalf("adjacent delivery failed")
	}
}

// TestFlitConservation drives heavy random traffic and checks that no flit
// is ever lost or duplicated: injected == delivered + in flight.
func TestFlitConservation(t *testing.T) {
	topo, _ := NewTopology(4, 4)
	e := sim.NewEngine()
	n := NewNetwork(e, topo)
	nodes := make([]*TrafficNode, topo.NumNodes())
	for i := range nodes {
		nodes[i] = NewTrafficNode(i, topo, TrafficConfig{Pattern: Uniform, Rate: 0.9}, 42)
		n.Attach(i, nodes[i])
		e.Register(sim.PhaseNode, nodes[i])
	}
	for cycle := 0; cycle < 500; cycle++ {
		e.Tick()
		if n.Stats.Injected.Value() != n.Stats.Delivered.Value()+int64(n.InFlight()) {
			t.Fatalf("cycle %d: conservation violated: inj=%d del=%d inflight=%d",
				cycle, n.Stats.Injected.Value(), n.Stats.Delivered.Value(), n.InFlight())
		}
	}
	if n.Stats.Delivered.Value() == 0 {
		t.Fatal("no traffic delivered")
	}
}

// TestAllFlitsEventuallyDrain stops injection and verifies the network
// empties (no livelocked flit in this finite scenario).
func TestAllFlitsEventuallyDrain(t *testing.T) {
	topo, _ := NewTopology(4, 4)
	e := sim.NewEngine()
	n := NewNetwork(e, topo)
	nodes := make([]*TrafficNode, topo.NumNodes())
	for i := range nodes {
		nodes[i] = NewTrafficNode(i, topo, TrafficConfig{Pattern: Uniform, Rate: 1.0}, 7)
		n.Attach(i, nodes[i])
	}
	// Phase 1: heavy injection for 200 cycles (nodes registered manually
	// so we can stop them).
	for c := 0; c < 200; c++ {
		for _, tn := range nodes {
			tn.Step(e.Now())
		}
		e.Tick()
	}
	// Phase 2: no more injection; drain.
	for c := 0; c < 500 && n.InFlight() > 0; c++ {
		e.Tick()
	}
	// Let source queues drain too.
	for c := 0; c < 2000 && n.Stats.Delivered.Value() < n.Stats.Injected.Value(); c++ {
		e.Tick()
	}
	if n.InFlight() != 0 {
		t.Fatalf("%d flits still in flight after drain", n.InFlight())
	}
	if n.Stats.Delivered.Value() != n.Stats.Injected.Value() {
		t.Fatalf("delivered %d != injected %d", n.Stats.Delivered.Value(), n.Stats.Injected.Value())
	}
}

// TestDeterminism runs the same traffic twice and requires bit-identical
// statistics.
func TestDeterminism(t *testing.T) {
	run := func() (int64, float64, int64) {
		topo, _ := NewTopology(4, 4)
		e := sim.NewEngine()
		n := NewNetwork(e, topo)
		for i := 0; i < topo.NumNodes(); i++ {
			tn := NewTrafficNode(i, topo, TrafficConfig{Pattern: Uniform, Rate: 0.5}, 99)
			n.Attach(i, tn)
			e.Register(sim.PhaseNode, tn)
		}
		e.Run(1000)
		return n.Stats.Delivered.Value(), n.Stats.Latency.Mean(), n.TotalDeflections()
	}
	d1, l1, f1 := run()
	d2, l2, f2 := run()
	if d1 != d2 || l1 != l2 || f1 != f2 {
		t.Fatalf("non-deterministic: (%d,%v,%d) vs (%d,%v,%d)", d1, l1, f1, d2, l2, f2)
	}
}

// TestHotspotDeliversToTarget checks the hotspot pattern actually
// concentrates traffic.
func TestHotspotDeliversToTarget(t *testing.T) {
	topo, _ := NewTopology(4, 4)
	e := sim.NewEngine()
	n := NewNetwork(e, topo)
	hot := 5
	nodes := make([]*TrafficNode, topo.NumNodes())
	for i := range nodes {
		nodes[i] = NewTrafficNode(i, topo, TrafficConfig{Pattern: Hotspot, HotspotNode: hot, Rate: 0.2}, 3)
		n.Attach(i, nodes[i])
		e.Register(sim.PhaseNode, nodes[i])
	}
	e.Run(500)
	total := int64(0)
	for i, tn := range nodes {
		if i != hot && tn.Recv.Value() != 0 {
			t.Errorf("node %d received %d hotspot flits", i, tn.Recv.Value())
		}
		total += tn.Recv.Value()
	}
	if nodes[hot].Recv.Value() == 0 || nodes[hot].Recv.Value() != total {
		t.Errorf("hotspot received %d of %d", nodes[hot].Recv.Value(), total)
	}
}

// TestDeflectionsHappenUnderLoad sanity-checks that contention produces
// deflections (the defining behaviour of hot-potato routing).
func TestDeflectionsHappenUnderLoad(t *testing.T) {
	topo, _ := NewTopology(4, 4)
	e := sim.NewEngine()
	n := NewNetwork(e, topo)
	for i := 0; i < topo.NumNodes(); i++ {
		tn := NewTrafficNode(i, topo, TrafficConfig{Pattern: Hotspot, HotspotNode: 0, Rate: 1.0}, 5)
		n.Attach(i, tn)
		e.Register(sim.PhaseNode, tn)
	}
	e.Run(300)
	if n.TotalDeflections() == 0 {
		t.Error("saturating hotspot traffic should cause deflections")
	}
}

// TestSwitchNeverStoresFlits checks the minimal-storage property: the sum
// of flits on all links never exceeds links' capacity and a switch always
// forwards everything it receives in one cycle (conservation per switch is
// already covered; here we bound in-flight by link count).
func TestSwitchNeverStoresFlits(t *testing.T) {
	topo, _ := NewTopology(4, 4)
	e := sim.NewEngine()
	n := NewNetwork(e, topo)
	for i := 0; i < topo.NumNodes(); i++ {
		tn := NewTrafficNode(i, topo, TrafficConfig{Pattern: Uniform, Rate: 1.0}, 17)
		n.Attach(i, tn)
		e.Register(sim.PhaseNode, tn)
	}
	maxLinks := topo.NumNodes() * int(NumPorts)
	for c := 0; c < 400; c++ {
		e.Tick()
		if inf := n.InFlight(); inf > maxLinks {
			t.Fatalf("in-flight %d exceeds link capacity %d", inf, maxLinks)
		}
	}
}

func TestEjectMissedIsCounted(t *testing.T) {
	// Two flits arriving for the same node in one cycle: one must be
	// deflected and the EjectMissed counter must record it eventually.
	topo, _ := NewTopology(4, 4)
	e := sim.NewEngine()
	n := NewNetwork(e, topo)
	cols := make([]*collector, topo.NumNodes())
	for i := range cols {
		cols[i] = &collector{}
		n.Attach(i, cols[i])
	}
	dst := topo.ID(1, 1)
	left := topo.ID(0, 1)
	right := topo.ID(2, 1)
	cols[left].out = append(cols[left].out, mkFlit(topo, left, dst, 1))
	cols[right].out = append(cols[right].out, mkFlit(topo, right, dst, 2))
	e.Run(30)
	if len(cols[dst].got) != 2 {
		t.Fatalf("destination got %d flits, want 2", len(cols[dst].got))
	}
	var missed int64
	for _, sw := range n.Routers {
		missed += sw.(*DeflSwitch).Stats.EjectMissed.Value()
	}
	if missed == 0 {
		t.Error("simultaneous arrivals should have recorded an eject miss")
	}
}
