package noc

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestSwitchStageCheckpointHopping jumps between two checkpoints of one
// run out of order — back to the earlier one, a short way forward, then
// ahead to the later one — for every router kind on every fabric, and
// requires the final router state to equal an uninterrupted run's. It
// pins that a restore reinstates the switch stage's wake stamps rather
// than keeping those of the branch it abandons: the later checkpoint has
// flits in flight that the branch before it never stamped.
func TestSwitchStageCheckpointHopping(t *testing.T) {
	for _, kind := range []TopologyKind{TopoTorus, TopoMesh, TopoCMesh} {
		topo, err := NewTopologyOfKind(kind, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, router := range AllRouters() {
			mc := MeasureConfig{Router: router, Traffic: TrafficConfig{Pattern: Uniform, Rate: 0.3}, Seed: 3}
			straight := trafficRig(topo, mc)
			straight.e.Run(1_500)
			var want strings.Builder
			writeRouterState(t, &want, straight)

			hop := trafficRig(topo, mc)
			hop.e.Run(400)
			early, err := hop.e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			hop.e.Run(600)
			late, err := hop.e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := hop.e.Restore(early); err != nil {
				t.Fatal(err)
			}
			hop.e.Run(37)
			if err := hop.e.Restore(late); err != nil {
				t.Fatal(err)
			}
			hop.e.Run(500)
			var got strings.Builder
			writeRouterState(t, &got, hop)
			// The first line holds the network-wide counters, which no
			// checkpoint covers (measurement windows take baselines).
			_, g, _ := strings.Cut(got.String(), "\n")
			_, w, _ := strings.Cut(want.String(), "\n")
			if g != w {
				t.Errorf("%v/%v: checkpoint hopping diverges from a straight run:\n got: %s\nwant: %s",
					kind, router, g, w)
			}
		}
	}
}

// TestWormholeCreditSurvivesIdleJump sends one flit a single hop through a
// wormhole torus. The cycle the destination ejects it writes no register,
// so the engine is quiet on the next one, yet the credit the ejection
// returned upstream is due for collection then. The engine must not jump
// over that cycle: a credit folded on the wrong parity stays stranded.
func TestWormholeCreditSurvivesIdleJump(t *testing.T) {
	topo := mustTopo(t, 4, 4)
	e := sim.NewEngine()
	n := NewRouterNetwork(e, topo, RouterWormhole)
	src, dst := 0, mustNeighbor(topo, 0, East)
	from, to := &collector{}, &collector{}
	n.Attach(src, from)
	n.Attach(dst, to)
	from.out = append(from.out, mkFlit(topo, src, dst, 1))
	e.Run(50)
	if len(to.got) != 1 {
		t.Fatalf("destination got %d flits, want 1", len(to.got))
	}
	if e.CyclesSkipped() == 0 {
		t.Fatal("the engine never fast-forwarded; the test exercises nothing")
	}
	sw := n.Routers[src].(*WormholeSwitch)
	for p := range sw.credits {
		for v, c := range sw.credits[p] {
			if c != WormholeVCDepth {
				t.Errorf("port %v VC %d holds %d credits after the network drained, want %d", Port(p), v, c, WormholeVCDepth)
			}
		}
	}
}
