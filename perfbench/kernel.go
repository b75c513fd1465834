package main

import (
	"context"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/jacobi"
	"repro/internal/matmul"
	"repro/internal/scenario"
	"repro/internal/syncbench"
)

// kernel-dse is the paper's design-space exploration as one scenario with
// the result cache off: three kernels, the message-passing and the
// shared-memory variant, four core counts and one L1 below and one above
// the kernels' working set. It has no random input; the seed is unused.
var kernelDSE = &workload{
	name: "kernel-dse",
	run: func(ctx context.Context, r *run) error {
		return runSweep(ctx, r, sweepSpec{setupReps: 200, build: buildKernelDSE, layers: kernelLayers})
	},
	owned: []string{
		"core.build_ms", "kernel.ns_per_cycle.hybrid-full", "kernel.ns_per_cycle.pure-sm",
		"pe.ns_per_op", "pe.ops", "pe.stall_frac", "tie.packets", "cache.miss_rate",
		"mpmmu.busy_frac", "kernel.skip_frac",
	},
}

// syncbenchRounds is the scenario runner's default syncbench round count.
const syncbenchRounds = 20

type kernelSize struct {
	n       int
	cores   []int
	cacheKB []int
}

func kernelSizeOf(tiny bool) kernelSize {
	if tiny {
		return kernelSize{n: 10, cores: []int{2, 4}, cacheKB: []int{2}}
	}
	return kernelSize{n: 30, cores: []int{2, 4, 8, 12}, cacheKB: []int{2, 16}}
}

var (
	kernelKinds    = []dse.Kernel{dse.KernelJacobi, dse.KernelMatmul, dse.KernelSyncbench}
	kernelVariants = []jacobi.Variant{jacobi.HybridFull, jacobi.PureSM}
)

func kernelScenarioJSON(sz kernelSize) []byte {
	return mustJSON(map[string]any{
		"name":      "kernel-dse",
		"workloads": []string{"jacobi", "matmul", "syncbench"},
		"kernel": map[string]any{
			"n":        sz.n,
			"variants": []string{"hybrid-full", "pure-sm"},
			"cores":    sz.cores,
			"cache_kb": sz.cacheKB,
			"policies": []string{"write-back"},
		},
		"parallelism": workers(),
	})
}

func buildKernelDSE(ctx context.Context, r *run) (*sweep, error) {
	sz := kernelSizeOf(r.opt.tiny)
	raw := kernelScenarioJSON(sz)
	s, err := scenario.Parse(raw)
	if err != nil {
		return nil, err
	}
	var tasks []task
	for _, k := range kernelKinds {
		for _, v := range kernelVariants {
			for _, kb := range sz.cacheKB {
				for _, c := range sz.cores {
					tasks = append(tasks, kernelTask(k, v, c, kb, sz.n))
				}
			}
		}
	}
	return &sweep{
		scenarios:   []*scenario.Scenario{s},
		rawScenario: raw,
		tasks:       tasks,
		results: func(outs []taskOut) []scenario.Result {
			return kernelResults(s.Name, outs)
		},
		cleanup: func() {},
	}, nil
}

// kernelTask runs one point through the kernel's own entry point, as
// dse.KernelSweepCtx does.
func kernelTask(k dse.Kernel, v jacobi.Variant, cores, kb, n int) task {
	return task{class: v.String(), run: func(ctx context.Context, rec *recorder) (taskOut, error) {
		cfg := core.DefaultConfig(cores, kb, cache.WriteBack)
		p := dse.KernelPoint{
			Kernel: k, Variant: v, Compute: cores, CacheKB: kb, Policy: cache.WriteBack,
			AreaMM2: dse.Area(cores, kb, cfg.MPMMUCacheKB),
		}
		out := taskOut{kernel: &p, counts: map[string]int64{}}
		t0 := time.Now()
		switch k {
		case dse.KernelJacobi:
			id := rec.start("jacobi.RunCtx", 0)
			var sys *core.System
			var built time.Time
			res, err := jacobi.RunCtx(ctx, cfg, jacobi.Spec{N: n, Warmup: 1, Measured: 1}, v,
				jacobi.WithSystemHook(func(s *core.System) error {
					sys, built = s, time.Now()
					return nil
				}))
			rec.end(id)
			if err != nil {
				return out, err
			}
			rec.add("core.Build", id, t0, built)
			p.Cycles, p.MissRate = res.CyclesPerIteration, res.MissRate
			p.MPMMUBusy, p.NoCFlits, p.CyclesSkipped = res.MPMMUBusy, res.NoCFlits, res.CyclesSkipped
			out.cycles = sys.Engine.Now()
			c := out.counts
			c["noc.deflections"] = res.Deflections
			c["jacobi.cycles"] = out.cycles
			c["jacobi.skipped_cycles"] = res.CyclesSkipped
			out.buildNS = built.Sub(t0).Nanoseconds()
			for _, pr := range sys.Procs {
				c["pe.ops"] += pr.Stats.Ops.Value()
				c["pe.stall_cycles"] += pr.Stats.StallCycles.Value()
				c["pe.core_cycles"] += out.cycles
				c["cache.misses"] += pr.Cache.Stats.Misses.Value()
				c["cache.accesses"] += pr.Cache.Stats.Hits.Value() + pr.Cache.Stats.Misses.Value()
				c["tie.packets"] += pr.Port.Stats.PacketsSent.Value()
			}
		case dse.KernelMatmul:
			id := rec.start("matmul.RunCtx", 0)
			res, err := matmul.RunCtx(ctx, cfg, matmul.Spec{N: n}, v)
			rec.end(id)
			if err != nil {
				return out, err
			}
			p.Cycles, p.TransferCycles = res.TotalCycles, res.TransferCycles
			p.MPMMUBusy, p.NoCFlits, p.CyclesSkipped = res.MPMMUBusy, res.NoCFlits, res.CyclesSkipped
			// matmul reports its barrier-to-barrier span, not the engine
			// clock, so its cycles are the measured region.
			out.cycles = res.TotalCycles
		case dse.KernelSyncbench:
			kind := syncbench.MessageBarrier
			if v == jacobi.PureSM {
				kind = syncbench.LockBarrier
			}
			id := rec.start("syncbench.MeasureWithCtx", 0)
			res, err := syncbench.MeasureWithCtx(ctx, kind, cfg, syncbenchRounds)
			rec.end(id)
			if err != nil {
				return out, err
			}
			p.Cycles, p.MPMMUBusy, p.NoCFlits, p.CyclesSkipped = res.CyclesPerRound, res.MPMMUBusy, res.NoCFlits, res.CyclesSkipped
			// Likewise the measured rounds only.
			out.cycles = res.CyclesPerRound * syncbenchRounds
		}
		out.ns = time.Since(t0).Nanoseconds()
		c := out.counts
		c["noc.flits"] += p.NoCFlits
		c["mpmmu.busy_cycles"] += p.MPMMUBusy
		c["sim.skipped_cycles"] += p.CyclesSkipped
		return out, nil
	}}
}

// kernelResults attaches Speedup per (kernel, variant) series and projects
// the points onto scenario rows, as the scenario runner does.
func kernelResults(name string, outs []taskOut) []scenario.Result {
	pts := make([]dse.KernelPoint, len(outs))
	for i, o := range outs {
		pts[i] = *o.kernel
	}
	for lo := 0; lo < len(pts); {
		hi := lo
		for hi < len(pts) && pts[hi].Kernel == pts[lo].Kernel && pts[hi].Variant == pts[lo].Variant {
			hi++
		}
		dse.AttachKernelSpeedup(pts[lo:hi])
		lo = hi
	}
	rows := make([]scenario.Result, len(pts))
	for i, p := range pts {
		r := scenario.Result{
			Scenario: name, Workload: p.Kernel.String(), Variant: p.Variant.String(),
			Cores: p.Compute, CacheKB: p.CacheKB, Policy: p.Policy.String(), Speedup: p.Speedup,
		}
		switch p.Kernel {
		case dse.KernelJacobi:
			r.CyclesPerIter, r.MissRate, r.AreaMM2 = p.Cycles, p.MissRate, p.AreaMM2
		case dse.KernelMatmul:
			r.TotalCycles, r.TransferCycles, r.MPMMUBusy, r.NoCFlits = p.Cycles, p.TransferCycles, p.MPMMUBusy, p.NoCFlits
		case dse.KernelSyncbench:
			r.CyclesPerRound, r.MPMMUBusy, r.NoCFlits = p.Cycles, p.MPMMUBusy, p.NoCFlits
		}
		rows[i] = r
	}
	return rows
}

func kernelLayers(_ context.Context, r *run, sw *sweep, traced []pass) error {
	c := map[string]int64{}
	var builds []float64
	var jacobiNS int64
	for _, p := range traced {
		for k, v := range p.counts {
			c[k] += v
		}
		for _, o := range p.outs {
			if o.kernel.Kernel == dse.KernelJacobi {
				builds = append(builds, float64(o.buildNS)/1e6)
				jacobiNS += o.ns
			}
		}
	}
	n := int64(len(traced))
	r.set("core.build_ms", median(builds), "ms")
	for _, v := range kernelVariants {
		r.set("kernel.ns_per_cycle."+v.String(), classRate(traced, sw.tasks, v.String()), "ns/cycle")
	}
	r.set("pe.ns_per_op", ratio(jacobiNS, c["pe.ops"]), "ns/op")
	r.set("pe.ops", float64(c["pe.ops"]/n), "count")
	r.set("pe.stall_frac", ratio(c["pe.stall_cycles"], c["pe.core_cycles"]), "ratio")
	r.set("tie.packets", float64(c["tie.packets"]/n), "count")
	r.set("cache.miss_rate", ratio(c["cache.misses"], c["cache.accesses"]), "ratio")
	r.set("mpmmu.busy_frac", ratio(c["mpmmu.busy_cycles"], c["sim.cycles"]), "ratio")
	r.set("kernel.skip_frac", ratio(c["jacobi.skipped_cycles"], c["jacobi.cycles"]), "ratio")
	return nil
}
