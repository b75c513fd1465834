package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/dse"
	"repro/internal/scenario"
)

// task is one sweep point run by a direct call into a simulator layer,
// the same call the scenario runner makes for that point.
type task struct {
	// class groups points for the ns-per-cycle metrics (a kernel variant
	// or a network load class).
	class string
	run   func(ctx context.Context, rec *recorder) (taskOut, error)
}

// taskOut is one point's outcome.
type taskOut struct {
	result scenario.Result
	// kernel is set for kernel points instead of result: their Speedup is
	// attached across the series once the pass has finished.
	kernel *dse.KernelPoint
	// cycles counts simulated cycles, fast-forwarded cycles included.
	cycles int64
	// counts are the point's exact simulated statistics.
	counts map[string]int64
	// ns is the host time of the layer call; buildNS, for jacobi points,
	// the part of it spent before the system hook ran (core.Build).
	ns, buildNS int64
}

// pass is one execution of every task.
type pass struct {
	seconds float64
	latency []float64 // per point, seconds
	outs    []taskOut
	counts  map[string]int64
	cycles  int64
}

func runPass(ctx context.Context, tasks []task, workers int, rec *recorder) (pass, error) {
	p := pass{latency: make([]float64, len(tasks)), outs: make([]taskOut, len(tasks)), counts: map[string]int64{}}
	t0 := time.Now()
	err := forEach(ctx, len(tasks), workers, func(i int) error {
		s := time.Now()
		out, err := tasks[i].run(ctx, rec)
		p.latency[i] = time.Since(s).Seconds()
		p.outs[i] = out
		return err
	})
	p.seconds = time.Since(t0).Seconds()
	if err != nil {
		return p, err
	}
	for _, o := range p.outs {
		p.cycles += o.cycles
		for k, v := range o.counts {
			p.counts[k] += v
		}
	}
	p.counts["sim.cycles"] = p.cycles
	return p, nil
}

// sweep is a prepared sweep workload: the scenarios a user would submit,
// and the equivalent direct layer calls the benchmark times.
type sweep struct {
	scenarios []*scenario.Scenario
	// rawScenario is the first scenario's JSON, for the parse probe.
	rawScenario []byte
	tasks       []task
	// results maps a pass's outputs to scenario rows in canonical order.
	results func(outs []taskOut) []scenario.Result
	cleanup func()
	// trace is the encoded trace recorded at set-up (noc-fabric only).
	trace []byte
}

// sweepSpec describes one sweep workload.
type sweepSpec struct {
	// setupReps is how often set-up is repeated to report its median.
	setupReps int
	build     func(ctx context.Context, r *run) (*sweep, error)
	// layers sets the workload's own per-layer metrics from the traced
	// passes.
	layers func(ctx context.Context, r *run, sw *sweep, traced []pass) error
}

func workers() int { return runtime.NumCPU() }

// runSweep runs kernel-dse and noc-fabric: set up, run whole passes for
// the measured seconds (alternating untraced and traced passes on a
// traced run), check that every pass reproduced the same exact counts and
// results, and check those against the scenario runner and the pins.
func runSweep(ctx context.Context, r *run, spec sweepSpec) error {
	var sw *sweep
	setup := make([]float64, 0, spec.setupReps)
	for i := 0; i < spec.setupReps; i++ {
		if sw != nil {
			sw.cleanup()
		}
		t0 := time.Now()
		var err error
		if sw, err = spec.build(ctx, r); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer sw.cleanup()

	var untraced, traced []pass
	var rec *recorder
	if r.opt.trace {
		rec = newRecorder()
	}
	var firstCounts map[string]int64
	var firstRoot string
	heap := startHeapSampler()
	deadline := time.Now().Add(time.Duration(r.opt.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		// A traced run alternates untraced and traced passes after a first
		// pass that warms caches and is left out of the overhead figure.
		tr := r.opt.trace && i%2 == 1
		prec := (*recorder)(nil)
		if tr {
			prec = rec
		}
		p, err := runPass(ctx, sw.tasks, workers(), prec)
		heap.window()
		r.attempted += int64(len(sw.tasks))
		if err != nil {
			heap.stop()
			r.fail("pass %d: %v", i, err)
			return nil
		}
		root := scenario.MerkleRoot(sw.results(p.outs))
		if firstCounts == nil {
			firstCounts, firstRoot = p.counts, root
		} else {
			r.check(root == firstRoot, "pass %d: results root %s differs from the first pass's %s", i, root, firstRoot)
			r.check(sameCounts(p.counts, firstCounts), "pass %d (traced %v): exact counts %v differ from the first pass's %v", i, tr, p.counts, firstCounts)
		}
		r.samples["pass_s"] = append(r.samples["pass_s"], p.seconds)
		switch {
		case tr:
			traced = append(traced, p)
		case !r.opt.trace || i > 0:
			// Only traced passes keep their rows: retained heap must not
			// grow with the number of passes a faster build fits in.
			p.outs = nil
			untraced = append(untraced, p)
		}
		if time.Now().After(deadline) && len(untraced) > 0 && (!r.opt.trace || len(traced) > 0) {
			break
		}
	}
	peak := heap.stop()
	r.counts, r.root = firstCounts, firstRoot

	// The scenario runner must produce exactly the rows of the direct calls.
	var rows []scenario.Result
	for _, s := range sw.scenarios {
		res, err := scenario.RunCtx(ctx, s)
		if err != nil {
			r.check(false, "scenario %s: %v", s.Name, err)
			return nil
		}
		rows = append(rows, res...)
	}
	root := scenario.MerkleRoot(rows)
	r.check(root == firstRoot, "scenario.RunCtx root %s differs from the direct layer calls' root %s", root, firstRoot)
	r.checkPins()

	if !r.opt.trace {
		var pps, cps []float64
		for _, p := range untraced {
			pps = append(pps, float64(len(sw.tasks))/p.seconds)
			cps = append(cps, float64(p.cycles)/p.seconds)
		}
		// A point's latency is its median over the passes, so a host
		// stall during one pass does not move the percentiles.
		lat := make([]float64, len(sw.tasks))
		for i := range lat {
			xs := make([]float64, len(untraced))
			for k, p := range untraced {
				xs[k] = p.latency[i]
			}
			lat[i] = median(xs)
		}
		r.set("setup_s", median(setup), "s")
		r.set("points_per_s", median(pps), "points/s")
		r.set("jobs_per_s", median(pps), "jobs/s")
		r.set("sim_cycles_per_s", median(cps), "cycles/s")
		r.set("job_p50_ms", quantile(lat, 0.50)*1e3, "ms")
		r.set("job_p99_ms", quantile(lat, 0.99)*1e3, "ms")
		r.set("peak_heap_mb", peak/mb, "MB")
		r.set("retained_heap_mb", retainedHeap()/mb, "MB")
		return nil
	}

	var ut, tt []float64
	for _, p := range untraced {
		ut = append(ut, p.seconds)
	}
	for _, p := range traced {
		tt = append(tt, p.seconds)
	}
	r.set("bench.trace_overhead_frac", median(tt)/median(ut)-1, "ratio")
	if err := spec.layers(ctx, r, sw, traced); err != nil {
		return err
	}
	if err := probes(ctx, r, sw.rawScenario, rows[:sw.scenarios[0].NumPoints()]); err != nil {
		return err
	}
	return finishTrace(r, rec)
}

func sameCounts(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// classRate returns Σ ns / Σ cycles over the traced points of one class.
func classRate(traced []pass, tasks []task, class string) float64 {
	var ns, cyc int64
	for _, p := range traced {
		for i, o := range p.outs {
			if tasks[i].class == class {
				ns += o.ns
				cyc += o.cycles
			}
		}
	}
	if cyc == 0 {
		return 0
	}
	return float64(ns) / float64(cyc)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
