package noc

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestRouterStateGolden pins every router's own counters and arbitration
// state — not just the network aggregates, which would not notice a flit
// being counted by a different switch — for every router kind on every
// fabric at idle, light and heavy load, plus one run per kind forked from
// a mid-run snapshot. Regenerate with `go test ./internal/noc -run
// TestRouterStateGolden -update` only for a change meant to alter
// simulated behaviour.
func TestRouterStateGolden(t *testing.T) {
	var b strings.Builder
	for _, kind := range []TopologyKind{TopoTorus, TopoMesh, TopoCMesh} {
		topo, err := NewTopologyOfKind(kind, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, router := range AllRouters() {
			for _, rate := range []float64{0, 0.05, 0.4} {
				rig := trafficRig(topo, MeasureConfig{
					Router: router, Traffic: TrafficConfig{Pattern: Uniform, Rate: rate}, Seed: 11,
				})
				rig.e.Run(2_003)
				fmt.Fprintf(&b, "== %v %v rate %.2f\n", kind, router, rate)
				writeRouterState(t, &b, rig)
			}
		}
	}
	// Forked runs: warm up, checkpoint, run on, rewind to the checkpoint
	// and run a different length. Every router must end as if the first
	// leg had never happened.
	topo := mustTopo(t, 4, 4)
	for _, router := range AllRouters() {
		rig := trafficRig(topo, MeasureConfig{
			Router: router, Traffic: TrafficConfig{Pattern: Uniform, Rate: 0.05}, Seed: 5,
		})
		rig.e.Run(1_001)
		snap, err := rig.e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		rig.e.Run(700)
		if err := rig.e.Restore(snap); err != nil {
			t.Fatal(err)
		}
		rig.e.Run(1_502)
		fmt.Fprintf(&b, "== fork %v\n", router)
		writeRouterState(t, &b, rig)
	}

	path := filepath.Join("testdata", "router_state.golden")
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("router state diverges from %s at line %d:\n  got:  %s\n  want: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("router state diverges from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// writeRouterState appends one line per router. The state is read after a
// checkpoint round trip: it is the state a fork would resume from, so any
// router state a checkpoint missed shows up here too.
func writeRouterState(t *testing.T, b *strings.Builder, rig *measureRig) {
	t.Helper()
	snap, err := rig.e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.e.Restore(snap); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "cycle %d injected %d delivered %d\n",
		rig.e.Now(), rig.n.Stats.Injected.Value(), rig.n.Stats.Delivered.Value())
	for _, r := range rig.n.Routers {
		fmt.Fprintf(b, "%d buf %d peak %d defl %d ej %d ", r.ID(), r.Buffered(), r.PeakBuffered(), r.Deflections(), r.EjectedCount())
		switch s := r.(type) {
		case *DeflSwitch:
			fmt.Fprintf(b, "%+v\n", s.Stats)
		case *AdaptiveSwitch:
			fmt.Fprintf(b, "%+v\n", s.Stats)
		case *XYSwitch:
			fmt.Fprintf(b, "rr %d %+v\n", s.rrStart, s.Stats)
		case *WormholeSwitch:
			fmt.Fprintf(b, "credits %v min %d %+v\n", s.credits, s.minCredit, s.Stats)
		default:
			t.Fatalf("unknown router type %T", r)
		}
	}
}
