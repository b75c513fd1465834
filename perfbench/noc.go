package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/noc"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/trace"
)

// noc-fabric is the bare network in three parts: synthetic traffic on all
// four routers at an idle, a light and a heavy load; a request/response
// service sweep; and a replay of a trace recorded at set-up. The seed
// drives every traffic generator and the recorded trace.
var nocFabric = &workload{
	name: "noc-fabric",
	run: func(ctx context.Context, r *run) error {
		return runSweep(ctx, r, sweepSpec{setupReps: 21, build: buildNoCFabric, layers: nocLayers})
	},
	owned: []string{
		"sim.ffwd_skip_frac",
		"noc.ns_per_cycle.idle", "noc.ns_per_cycle.light", "noc.ns_per_cycle.heavy",
		"noc.ns_per_cycle.replay", "noc.ns_per_cycle.service",
		"noc.flits", "noc.deflections", "shard.overhead_frac", "trace.decode_ms", "trace.events",
	},
}

// nocLoads are the synthetic offered loads (flits/node/cycle). The idle
// load is low enough that fast-forward skips most cycles.
var nocLoads = []struct {
	class string
	rate  float64
}{{"idle", 0.002}, {"light", 0.05}, {"heavy", 0.3}}

type nocSize struct {
	warmup, measure int64
	routers         []noc.RouterKind
	patterns        []noc.Pattern
}

func nocSizeOf(tiny bool) nocSize {
	if tiny {
		return nocSize{warmup: 50, measure: 300,
			routers:  []noc.RouterKind{noc.RouterDeflection, noc.RouterXY},
			patterns: []noc.Pattern{noc.Uniform}}
	}
	return nocSize{warmup: 300, measure: 3000,
		routers:  noc.AllRouters(),
		patterns: []noc.Pattern{noc.Uniform, noc.Transpose, noc.Hotspot}}
}

// simSeed maps the benchmark seed onto the simulator's seed axis.
func simSeed(seed int64) int64 { return 1000 + seed }

func names[T fmt.Stringer](xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = x.String()
	}
	return out
}

const nocW, nocH = 4, 4

// serviceSkews are the two service scenarios: uniform requests and a hot
// server taking most of them.
var serviceSkews = []float64{0, 0.8}

var serviceRouters = []noc.RouterKind{noc.RouterDeflection, noc.RouterXY}

const serviceRate, serviceServers = 0.02, 2

func buildNoCFabric(ctx context.Context, r *run) (*sweep, error) {
	sz := nocSizeOf(r.opt.tiny)
	seed := simSeed(r.opt.seed)
	rates := make([]float64, len(nocLoads))
	for i, l := range nocLoads {
		rates[i] = l.rate
	}
	synthRaw := mustJSON(map[string]any{
		"name":     "noc-synthetic",
		"workload": "noc-synthetic",
		"noc": map[string]any{
			"width": nocW, "height": nocH,
			"routers": names(sz.routers), "patterns": names(sz.patterns), "rates": rates,
			"warmup_cycles": sz.warmup, "measure_cycles": sz.measure,
		},
		"seeds":       []int64{seed},
		"parallelism": workers(),
	})
	synth, err := scenario.Parse(synthRaw)
	if err != nil {
		return nil, err
	}
	scens := []*scenario.Scenario{synth}
	for _, skew := range serviceSkews {
		s, err := scenario.Parse(mustJSON(map[string]any{
			"name":     fmt.Sprintf("service-skew-%g", skew),
			"workload": "service",
			"service": map[string]any{
				"width": nocW, "height": nocH, "routers": names(serviceRouters),
				"servers": serviceServers, "arrival_rates": []float64{serviceRate}, "hotspot_skew": skew,
				"warmup_cycles": sz.warmup, "measure_cycles": sz.measure,
			},
			"seeds":       []int64{seed},
			"parallelism": workers(),
		}))
		if err != nil {
			return nil, err
		}
		scens = append(scens, s)
	}

	// Record a uniform run, save it, and load it back through the replay
	// scenario's validation (which decodes the file).
	recS, err := scenario.Parse(mustJSON(map[string]any{
		"name": "record", "workload": "noc-synthetic",
		"noc": map[string]any{
			"width": nocW, "height": nocH, "patterns": []string{"uniform"}, "rates": []float64{0.1},
			"warmup_cycles": sz.warmup, "measure_cycles": sz.measure,
		},
		"seeds": []int64{seed},
	}))
	if err != nil {
		return nil, err
	}
	recorded, _, err := scenario.RecordCtx(ctx, recS)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.opt.workdir, "noc-fabric-")
	if err != nil {
		return nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	file := filepath.Join(dir, "uniform.trace")
	if err := recorded.Save(file); err != nil {
		cleanup()
		return nil, err
	}
	replay, err := scenario.Parse(mustJSON(map[string]any{
		"name": "replay", "workload": "trace",
		"trace": map[string]any{
			"file": file, "topologies": []string{"torus", "mesh"}, "routers": names(serviceRouters),
		},
		"parallelism": workers(),
	}))
	if err != nil {
		cleanup()
		return nil, err
	}
	scens = append(scens, replay)
	// The replay tasks take the events as the scenario runner does: decoded
	// from the saved file.
	data, err := os.ReadFile(file)
	if err != nil {
		cleanup()
		return nil, err
	}
	tr, err := trace.Decode(data)
	if err != nil {
		cleanup()
		return nil, err
	}

	var tasks []task
	var rowScenario []string // scenario name per task
	torus, err := noc.NewTopology(nocW, nocH)
	if err != nil {
		cleanup()
		return nil, err
	}
	for _, router := range sz.routers {
		for _, pat := range sz.patterns {
			for _, l := range nocLoads {
				tasks = append(tasks, synthTask(torus, router, pat, l.rate, l.class, seed, sz))
				rowScenario = append(rowScenario, synth.Name)
			}
		}
	}
	for i, skew := range serviceSkews {
		for _, router := range serviceRouters {
			tasks = append(tasks, serviceTask(torus, router, skew, seed, sz))
			rowScenario = append(rowScenario, scens[1+i].Name)
		}
	}
	events := make([]noc.ReplayEvent, len(tr.Events))
	for i, ev := range tr.Events {
		events[i] = noc.ReplayEvent{Cycle: ev.Cycle, Src: ev.Src, Dst: ev.Dst, Meta: ev.Meta, Req: ev.Kind == trace.EventMessage}
	}
	for _, tk := range []noc.TopologyKind{noc.TopoTorus, noc.TopoMesh} {
		topo, err := noc.NewTopologyOfKind(tk, nocW, nocH)
		if err != nil {
			cleanup()
			return nil, err
		}
		for _, router := range serviceRouters {
			tasks = append(tasks, replayTask(topo, router, tr, events))
			rowScenario = append(rowScenario, replay.Name)
		}
	}
	return &sweep{
		scenarios:   scens,
		rawScenario: synthRaw,
		tasks:       tasks,
		results: func(outs []taskOut) []scenario.Result {
			rows := make([]scenario.Result, len(outs))
			for i, o := range outs {
				rows[i] = o.result
				rows[i].Scenario = rowScenario[i]
			}
			return rows
		},
		cleanup: cleanup,
		trace:   data,
	}, nil
}

// nocRow projects a Measurement onto the noc-synthetic row schema, as the
// scenario runner does for synthetic and replay points.
func nocRow(topo noc.Topology, router noc.RouterKind, pattern string, rate float64, seed int64, bursty bool, m noc.Measurement) scenario.Result {
	return scenario.Result{
		Workload: "noc-synthetic", Topology: topo.Kind().String(), Router: router.String(),
		Pattern: pattern, Rate: rate, Seed: seed, Bursty: bursty,
		Cycles: m.Cycles, Delivered: m.Delivered, Throughput: m.Throughput,
		MeanLatency: m.MeanLatency, P99Latency: m.P99Latency,
		DeflectionRate: m.DeflectionRate, PeakBuffer: m.PeakBuffer,
	}
}

func nocCounts(m noc.Measurement, warmup int64) map[string]int64 {
	return map[string]int64{
		"noc.flits":          m.Delivered,
		"noc.deflections":    m.Deflections,
		"noc.window_cycles":  m.Cycles,
		"sim.skipped_cycles": m.CyclesSkipped,
		"noc.warmup_cycles":  warmup,
	}
}

func synthTask(topo noc.Topology, router noc.RouterKind, pat noc.Pattern, rate float64, class string, seed int64, sz nocSize) task {
	return task{class: class, run: func(ctx context.Context, rec *recorder) (taskOut, error) {
		t0 := time.Now()
		id := rec.start("noc.MeasureCtx", 0)
		m, err := noc.MeasureCtx(ctx, topo, noc.MeasureConfig{
			Router:  router,
			Traffic: noc.TrafficConfig{Pattern: pat, Rate: rate},
			Warmup:  sz.warmup, Measure: sz.measure, Seed: seed,
		})
		rec.end(id)
		if err != nil {
			return taskOut{}, err
		}
		return taskOut{
			result: nocRow(topo, router, pat.String(), rate, seed, false, m),
			cycles: sz.warmup + sz.measure,
			counts: nocCounts(m, sz.warmup),
			ns:     time.Since(t0).Nanoseconds(),
		}, nil
	}}
}

func replayTask(topo noc.Topology, router noc.RouterKind, tr *trace.Trace, events []noc.ReplayEvent) task {
	h := tr.Header
	return task{class: "replay", run: func(ctx context.Context, rec *recorder) (taskOut, error) {
		t0 := time.Now()
		id := rec.start("noc.MeasureReplayCtx", 0)
		m, err := noc.MeasureReplayCtx(ctx, topo, noc.ReplayConfig{
			Router: router, Events: events, Warmup: h.Warmup, Measure: h.Measure,
		})
		rec.end(id)
		if err != nil {
			return taskOut{}, err
		}
		return taskOut{
			result: nocRow(topo, router, h.Pattern, h.Rate, h.Seed, h.Bursty, m),
			cycles: h.Warmup + h.Measure,
			counts: nocCounts(m, h.Warmup),
			ns:     time.Since(t0).Nanoseconds(),
		}, nil
	}}
}

func serviceTask(topo noc.Topology, router noc.RouterKind, skew float64, seed int64, sz nocSize) task {
	return task{class: "service", run: func(ctx context.Context, rec *recorder) (taskOut, error) {
		t0 := time.Now()
		id := rec.start("noc.MeasureServiceCtx", 0)
		m, err := noc.MeasureServiceCtx(ctx, topo, noc.ServiceMeasureConfig{
			Router: router, Servers: serviceServers, ArrivalRate: serviceRate, HotspotSkew: skew,
			Warmup: sz.warmup, Measure: sz.measure, Seed: seed,
		})
		rec.end(id)
		if err != nil {
			return taskOut{}, err
		}
		return taskOut{
			result: scenario.Result{
				Workload: "service", Topology: topo.Kind().String(), Router: router.String(), Seed: seed,
				Servers: serviceServers, ArrivalRate: serviceRate, HotspotSkew: skew,
				Cycles: m.Cycles, Issued: m.Issued, Completed: m.Completed, InFlight: m.InFlight,
				Throttled: m.Throttled, Throughput: m.Throughput, MeanQueue: m.MeanQueue,
				MeanNetOut: m.MeanNetOut, MeanServer: m.MeanServer, MeanNetBack: m.MeanNetBack,
				MeanLatency: m.MeanLatency, P99Latency: m.P99Latency, P99Server: m.P99Server,
				PeakBuffer: m.PeakBuffer,
			},
			cycles: sz.warmup + sz.measure,
			counts: map[string]int64{
				"service.completed":  m.Completed,
				"noc.window_cycles":  m.Cycles,
				"sim.skipped_cycles": m.CyclesSkipped,
				"noc.warmup_cycles":  sz.warmup,
			},
			ns: time.Since(t0).Nanoseconds(),
		}, nil
	}}
}

func nocLayers(ctx context.Context, r *run, sw *sweep, traced []pass) error {
	c := map[string]int64{}
	for _, p := range traced {
		for k, v := range p.counts {
			c[k] += v
		}
	}
	n := int64(len(traced))
	r.set("sim.ffwd_skip_frac", ratio(c["sim.skipped_cycles"], c["noc.window_cycles"]), "ratio")
	for _, class := range []string{"idle", "light", "heavy", "replay", "service"} {
		r.set("noc.ns_per_cycle."+class, classRate(traced, sw.tasks, class), "ns/cycle")
	}
	r.set("noc.flits", float64(c["noc.flits"]/n), "count")
	r.set("noc.deflections", float64(c["noc.deflections"]/n), "count")

	var decode []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		tr, err := trace.Decode(sw.trace)
		if err != nil {
			return err
		}
		decode = append(decode, time.Since(t0).Seconds()*1e3)
		r.set("trace.events", float64(len(tr.Events)), "count")
	}
	r.set("trace.decode_ms", median(decode), "ms")

	// The synthetic sweep once more through the shard coordinator over two
	// in-process pipe workers, against the single-process runner.
	synth := sw.scenarios[0]
	coord := &shard.Coordinator{
		NewWorker: func(ctx context.Context) (shard.Worker, error) { return shard.StartPipe(ctx, nil), nil },
		Shards:    2, Parallelism: 1,
	}
	var single, sharded []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		a, err := scenario.RunCtx(ctx, synth)
		if err != nil {
			return err
		}
		single = append(single, time.Since(t0).Seconds())
		t0 = time.Now()
		b, _, err := coord.Run(ctx, synth)
		if err != nil {
			return err
		}
		sharded = append(sharded, time.Since(t0).Seconds())
		ra, rb := scenario.MerkleRoot(a), scenario.MerkleRoot(b)
		r.check(ra == rb, "sharded root %s differs from the single-process root %s", rb, ra)
	}
	r.set("shard.overhead_frac", median(sharded)/median(single)-1, "ratio")
	return nil
}
