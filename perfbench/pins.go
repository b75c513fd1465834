package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/scenario"
)

// pinsJSON pins, per workload and seed, the Merkle root of the workload's
// deterministic results and its exact simulated counts. Regenerate it with
// `perfbench --write-pins perfbench/pins.json` (run from the repository
// root) only when a change is meant to alter simulated behaviour; a
// speed-only change must leave it untouched and still pass.
//
//go:embed pins.json
var pinsJSON []byte

type pin struct {
	Root   string           `json:"root"`
	Counts map[string]int64 `json:"counts"`
}

// pinSet maps pinKey(...) to its pin.
type pinSet map[string]pin

func embeddedPins() (pinSet, error) {
	var p pinSet
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// pinKey names a workload's deterministic output: kernel-dse has no random
// input, the other workloads differ per seed. Tiny runs have keys of their
// own, which only the benchmark's tests pin.
func pinKey(workload string, seed int64, tiny bool) string {
	key := workload
	if workload != "kernel-dse" {
		key = fmt.Sprintf("%s/seed%d", workload, seed)
	}
	if tiny {
		key = "tiny/" + key
	}
	return key
}

// checkPins compares the run's root and counts with the pinned ones; a
// seed without a pin is checked only for internal consistency.
func (r *run) checkPins() {
	p, ok := r.opt.pins[pinKey(r.opt.workload, r.opt.seed, r.opt.tiny)]
	if !ok {
		return
	}
	r.check(p.Root == r.root, "results root %s differs from the pinned root %s", r.root, p.Root)
	r.check(sameCounts(p.Counts, r.counts), "exact counts %v differ from the pinned counts %v", r.counts, p.Counts)
}

// computePin produces one workload's root and counts without timing
// anything.
func computePin(ctx context.Context, opt options) (pin, error) {
	r := newRun(opt)
	var err error
	switch opt.workload {
	case kernelDSE.name:
		err = pinSweep(ctx, r, buildKernelDSE)
	case nocFabric.name:
		err = pinSweep(ctx, r, buildNoCFabric)
	case serveMixed.name:
		var pool []poolEntry
		if pool, err = buildPool(ctx, opt.seed, serveSizeOf(opt.tiny)); err == nil {
			pinPool(r, pool)
		}
	default:
		err = fmt.Errorf("unknown workload %q", opt.workload)
	}
	return pin{Root: r.root, Counts: r.counts}, err
}

func pinSweep(ctx context.Context, r *run, build func(context.Context, *run) (*sweep, error)) error {
	sw, err := build(ctx, r)
	if err != nil {
		return err
	}
	defer sw.cleanup()
	p, err := runPass(ctx, sw.tasks, workers(), nil)
	if err != nil {
		return err
	}
	r.root, r.counts = scenario.MerkleRoot(sw.results(p.outs)), p.counts
	return nil
}

// pinnedSeeds is how many seeds, from 0, the pins cover.
const pinnedSeeds = 100

// writePins computes the pins of every workload for seeds
// 0..pinnedSeeds-1 and writes them to path.
func writePins(ctx context.Context, path, workdir string, log io.Writer) error {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	out := pinSet{}
	for _, w := range workloads {
		n := pinnedSeeds
		if w == kernelDSE {
			n = 1
		}
		for seed := int64(0); seed < int64(n); seed++ {
			p, err := computePin(ctx, options{workload: w.name, seed: seed, workdir: workdir})
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			key := pinKey(w.name, seed, false)
			fmt.Fprintf(log, "perfbench: pinned %s root %s\n", key, p.Root)
			out[key] = p
		}
	}
	// One pin per line keeps the file small and its diffs readable.
	var b []byte
	for i, key := range sortedKeys(out) {
		line, err := json.Marshal(map[string]pin{key: out[key]})
		if err != nil {
			return err
		}
		sep := ",\n "
		if i == 0 {
			sep = "{\n "
		}
		b = append(append(b, sep...), line[1:len(line)-1]...)
	}
	return os.WriteFile(path, append(b, "\n}\n"...), 0o644)
}
