package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/pe"
	"repro/internal/resultcache"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/tie"
)

// probes measure single layers in isolation, built only from public
// constructors. Every traced run reports them.
func probes(ctx context.Context, r *run, rawScenario []byte, rows []scenario.Result) error {
	scale := 1
	if r.opt.tiny {
		scale = 10
	}
	topo, err := noc.NewTopology(nocW, nocH)
	if err != nil {
		return err
	}
	for _, router := range noc.AllRouters() {
		for _, load := range []struct {
			name string
			rate float64
		}{{"idle", 0}, {"busy", 0.4}} {
			e := sim.NewEngine()
			n := noc.NewRouterNetwork(e, topo, router)
			for id := 0; id < topo.NumEndpoints(); id++ {
				tn := noc.NewTrafficNode(id, topo, noc.TrafficConfig{Pattern: noc.Uniform, Rate: load.rate}, 1)
				n.Attach(id, tn)
				e.Register(sim.PhaseNode, tn)
			}
			e.Run(200) // reach steady-state occupancy
			r.set(fmt.Sprintf("sim.tick_ns.%s.%s", load.name, router), perCall(7, 4000/scale, e.Tick)*1e9, "ns")
		}
	}

	const ops = 20000
	t, err := runProbe(ctx, 1, func(env *pe.Env, _ []int) {
		for i := 0; i < ops/scale; i++ {
			env.Compute(1)
		}
	})
	if err != nil {
		return fmt.Errorf("pe probe: %w", err)
	}
	r.set("pe.op_rtt_ns", t/float64(ops/scale)*1e9, "ns")

	const trips = 2000
	t, err = runProbe(ctx, 2, func(env *pe.Env, nodes []int) {
		peer := nodes[1-env.Rank()]
		for i := 0; i < trips/scale; i++ {
			if env.Rank() == 0 {
				env.Send(peer, tie.Data, []uint32{uint32(i)})
				env.Recv(peer, tie.Data)
			} else {
				env.Recv(peer, tie.Data)
				env.Send(peer, tie.Data, []uint32{uint32(i)})
			}
		}
	})
	if err != nil {
		return fmt.Errorf("tie probe: %w", err)
	}
	r.set("tie.msg_rtt_ns", t/float64(trips/scale)*1e9, "ns")

	rc := resultcache.New(resultcache.NewMemoryStore(0))
	key := resultcache.NewKey("perfbench/probe").Str("probe", "hit").Sum()
	val, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	compute := func() ([]byte, error) { return val, nil }
	if _, _, err := rc.GetOrCompute(key, compute); err != nil {
		return err
	}
	r.set("resultcache.hit_us", perCall(7, 20000/scale, func() { rc.GetOrCompute(key, compute) })*1e6, "us")

	var parseErr error
	r.set("scenario.parse_us", perCall(7, 2000/scale, func() {
		if _, err := scenario.Parse(rawScenario); err != nil {
			parseErr = err
		}
	})*1e6, "us")
	if parseErr != nil {
		return parseErr
	}
	for _, f := range []string{scenario.FormatTable, scenario.FormatCSV, scenario.FormatJSON} {
		var renderErr error
		r.set("scenario.render_us."+f, perCall(7, 200/scale, func() {
			if _, err := scenario.Render(rows, f); err != nil {
				renderErr = err
			}
		})*1e6, "us")
		if renderErr != nil {
			return renderErr
		}
	}
	r.set("scenario.merkle_us", perCall(7, 200/scale, func() { scenario.MerkleRoot(rows) })*1e6, "us")
	return nil
}

// runProbe builds a system of cores compute cores, runs prog on every
// core and returns the host seconds of the run, the best of three.
func runProbe(ctx context.Context, cores int, prog func(env *pe.Env, nodes []int)) (float64, error) {
	best := 0.0
	for i := 0; i < 3; i++ {
		sys, err := core.Build(core.DefaultConfig(cores, 8, cache.WriteBack))
		if err != nil {
			return 0, err
		}
		nodes := sys.RankNodes()
		progs := make([]pe.Program, cores)
		for j := range progs {
			progs[j] = func(env *pe.Env) { prog(env, nodes) }
		}
		t0 := time.Now()
		sys.Launch(progs)
		if err := sys.RunCtx(ctx, 1<<40); err != nil {
			return 0, err
		}
		if t := time.Since(t0).Seconds(); i == 0 || t < best {
			best = t
		}
	}
	return best, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
