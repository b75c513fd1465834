package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range bm.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bm.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

func runTiny(t *testing.T, workload string, trace bool, pins pinSet, poison int) (report, *run) {
	t.Helper()
	return execute(context.Background(), options{
		workload: workload, seed: 3, seconds: 0.5, trace: trace, tiny: true,
		workdir: t.TempDir(), pins: pins, poison: poison, log: io.Discard,
	})
}

func TestEveryMetricIsEmittedWithItsUnit(t *testing.T) {
	e2e, layer := declared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layer
			}
			rep, r := runTiny(t, w.name, trace, nil, 0)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s trace %v: correct %v, %d of %d failed: %v", w.name, trace, rep.Correct, rep.Failed, rep.Attempted, r.problems)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace %v: %d metrics, want %d", w.name, trace, len(rep.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := rep.Metrics[name]
				if !ok {
					t.Errorf("%s trace %v: metric %s missing", w.name, trace, name)
					continue
				}
				if m.Unit != unit {
					t.Errorf("%s trace %v: %s unit %q, want %q", w.name, trace, name, m.Unit, unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, name, m.Value)
				}
			}
		}
	}
}

func TestCorruptedPinnedRootFails(t *testing.T) {
	for _, w := range []string{"kernel-dse", "noc-fabric", "serve-mixed"} {
		p, err := computePin(context.Background(), options{workload: w, seed: 3, tiny: true, workdir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		key := pinKey(w, 3, true)
		if rep, r := runTiny(t, w, false, pinSet{key: p}, 0); !rep.Correct {
			t.Fatalf("%s: the computed pin fails: %v", w, r.problems)
		}
		bad := pin{Root: "00" + p.Root[2:], Counts: p.Counts}
		if rep, _ := runTiny(t, w, false, pinSet{key: bad}, 0); rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: a corrupted pinned root passed: %+v", w, rep)
		}
		counts := map[string]int64{}
		for k, v := range p.Counts {
			counts[k] = v + 1
		}
		if rep, _ := runTiny(t, w, false, pinSet{key: {Root: p.Root, Counts: counts}}, 0); rep.Correct {
			t.Errorf("%s: corrupted pinned counts passed", w)
		}
	}
}

func TestFailedJobIsCounted(t *testing.T) {
	rep, _ := runTiny(t, "serve-mixed", false, nil, 1)
	if rep.Correct || rep.Failed != 1 {
		t.Errorf("untraced: correct %v, failed %d; want one failed job", rep.Correct, rep.Failed)
	}
	rep, _ = runTiny(t, "serve-mixed", true, nil, 1)
	if rep.Correct || rep.Failed != 1 || rep.Metrics["failed_frac"].Value <= 0 {
		t.Errorf("traced: correct %v, failed %d, failed_frac %v; want one failed job counted",
			rep.Correct, rep.Failed, rep.Metrics["failed_frac"].Value)
	}
}

func TestEmbeddedPinsParse(t *testing.T) {
	p, err := embeddedPins()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p[pinKey("kernel-dse", 0, false)]; !ok {
		t.Error("pins.json has no kernel-dse pin")
	}
}
