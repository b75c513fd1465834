package noc

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// BenchmarkTick measures the per-cycle cost of the engine on a 4x4 folded
// torus (the paper's mesh: 16 switches, 64 link registers) at three offered
// loads. At low load almost every link register is idle, which is the
// common case in the calibrated workloads — the engine must not pay a
// commit per idle register.
//
// The sparse cases attach traffic to only 3 of the 16 switches, the shape
// of a 2-core MEDEA system (two cores and the MPMMU), once per router
// kind: they show what the idle switches cost each kind.
func BenchmarkTick(b *testing.B) {
	topo, err := NewTopology(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	bench := func(b *testing.B, kind RouterKind, nodes []int, rate float64) {
		e := sim.NewEngine()
		n := NewRouterNetwork(e, topo, kind)
		for _, id := range nodes {
			tn := NewTrafficNode(id, topo, TrafficConfig{Pattern: Uniform, Rate: rate}, 1)
			n.Attach(id, tn)
			e.Register(sim.PhaseNode, tn)
		}
		e.Run(100) // warm up: steady-state occupancy
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Tick()
		}
	}
	all := make([]int, topo.NumNodes())
	for id := range all {
		all[id] = id
	}
	for _, rate := range []float64{0, 0.05, 0.4} {
		b.Run(fmt.Sprintf("load-%.2f", rate), func(b *testing.B) {
			bench(b, RouterDeflection, all, rate)
		})
	}
	for _, kind := range AllRouters() {
		b.Run("sparse-"+kind.String(), func(b *testing.B) {
			bench(b, kind, []int{0, 5, 10}, 0.1)
		})
	}
}
