package scenario

import (
	"context"
	"fmt"

	"repro/internal/noc"
	"repro/internal/resultcache"
	"repro/internal/trace"
)

// TraceConfig describes a trace-replay experiment: a recorded trace file
// (see internal/trace) pushed through the replay sweep axes. The trace
// itself fixes everything else — the endpoint grid, the event schedule
// and the measurement horizon — so the replay axes are topology and
// router only; patterns, rates, seeds and measurement windows have no
// meaning here and validation rejects them.
type TraceConfig struct {
	// File is the trace to replay. Load resolves a relative path against
	// the scenario file's directory (Parse, with no file, leaves it
	// relative to the process working directory).
	File string `json:"file"`
	// Topologies lists replay fabrics by name (see noc.TopologyNames);
	// one sweep axis. Empty means the fabric the trace was recorded on.
	Topologies []string `json:"topologies,omitempty"`
	// Routers lists replay routers by name (see noc.RouterNames); one
	// sweep axis. Empty means the router the trace was recorded under.
	Routers []string `json:"routers,omitempty"`

	// tr memoizes the decoded trace (validate loads it; runs reuse it).
	tr *trace.Trace
}

// load returns the decoded trace, reading File on first use.
func (c *TraceConfig) load() (*trace.Trace, error) {
	if c.tr == nil {
		t, err := trace.Load(c.File)
		if err != nil {
			return nil, err
		}
		c.tr = t
	}
	return c.tr, nil
}

// traceMisuse words the rejection of a "noc" section on the trace
// workload: the trace fixes the traffic and the horizon, so none of the
// noc-synthetic axes can apply, and naming the common offenders keeps the
// error actionable.
func traceMisuse(s *Scenario, sec section) error {
	switch {
	case sec != secNoC:
		return nil
	case len(s.NoC.MeasureWindows) > 0:
		return fmt.Errorf(`"noc.measure_windows" cannot apply to the trace workload: a replay's horizon is fixed by the recording; remove the "noc" section`)
	case len(s.NoC.Patterns) > 0 || len(s.NoC.Rates) > 0:
		return fmt.Errorf(`the trace workload replays recorded traffic: the "noc" patterns/rates axes cannot apply; remove the "noc" section (replay axes live under "trace")`)
	}
	return fmt.Errorf(`the "noc" section has no effect on the trace workload; remove it (replay axes live under "trace")`)
}

func validateTrace(s *Scenario, _ []WorkloadKind) error {
	if s.seeded() {
		return fmt.Errorf(`a trace replay is fully deterministic (the recording fixed the traffic): seeds/replications/base_seed have no effect; remove them`)
	}
	if s.Trace == nil {
		return fmt.Errorf(`workload %v needs a "trace" section`, WorkloadTrace)
	}
	c := s.Trace
	if c.File == "" {
		return fmt.Errorf(`"trace.file" must name a recorded trace (record one with medea-scenarios -record or medea-noc -record)`)
	}
	t, err := c.load()
	if err != nil {
		return fmt.Errorf(`"trace.file": %w`, err)
	}
	_, _, err = c.resolve(t)
	return err
}

// resolve builds the replay fabrics at the trace's grid size and resolves
// the router axis. Either axis defaults to what the trace was recorded
// on; the defaults must resolve too (a trace hand-built with an exotic
// header fails here, not mid-run).
func (c *TraceConfig) resolve(t *trace.Trace) ([]noc.Topology, []noc.RouterKind, error) {
	h := t.Header
	kinds, err := parseAxis("trace.topologies", c.Topologies, noc.ParseTopology)
	if err != nil {
		return nil, nil, err
	}
	where := fmt.Sprintf(`"trace.topologies": the trace's %dx%d grid`, h.Width, h.Height)
	if len(kinds) == 0 {
		k, err := noc.ParseTopology(h.Topology)
		if err != nil {
			return nil, nil, fmt.Errorf(`"trace.file": recorded topology: %w`, err)
		}
		kinds, where = []noc.TopologyKind{k}, `"trace.file": recorded fabric`
	}
	topos := make([]noc.Topology, len(kinds))
	for i, k := range kinds {
		if topos[i], err = noc.NewTopologyOfKind(k, h.Width, h.Height); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", where, err)
		}
	}
	routers, err := parseAxis("trace.routers", c.Routers, noc.ParseRouter)
	if err != nil {
		return nil, nil, err
	}
	if len(routers) == 0 {
		r, err := noc.ParseRouter(h.Router)
		if err != nil {
			return nil, nil, fmt.Errorf(`"trace.file": recorded router: %w`, err)
		}
		routers = []noc.RouterKind{r}
	}
	return topos, routers, nil
}

// traceAxes is the replay sweep: topologies x routers (each defaulting to
// the recorded one). The router axis's label also carries the trace's
// event count for Summary.
func traceAxes(s *Scenario) []axis {
	c := s.Trace
	routers := "routers"
	if t, err := c.load(); err == nil {
		routers = fmt.Sprintf("routers replaying %d recorded events", len(t.Events))
	}
	return []axis{{max(1, len(c.Topologies)), "topologies"}, {max(1, len(c.Routers)), routers}}
}

// runTrace expands topologies x routers over one decoded trace and
// replays each point on the shared worker pool. Replayed rows carry the
// noc-synthetic schema with the recorded provenance as their axis labels
// (pattern, rate, seed, bursty come from the trace header; topology and
// router are the replay axes) — a same-fabric replay therefore renders
// byte-identical tables/CSV/JSON and an equal Merkle root to its source
// run, which the record/replay differential battery asserts.
//
// The cache key embeds the trace's content hash — the trailing SHA-256 of
// the file bytes — so a cached replay can never outlive its trace: any
// byte change (including header provenance) misses, and two identical
// files share entries.
func runTrace(ctx context.Context, s *Scenario, points []int) ([]Result, error) {
	c := s.Trace
	t, err := c.load()
	if err != nil {
		return nil, fmt.Errorf(`scenario: "trace.file": %w`, err)
	}
	topos, routers, err := c.resolve(t)
	if err != nil {
		return nil, err
	}
	events := make([]noc.ReplayEvent, len(t.Events))
	for i, ev := range t.Events {
		events[i] = noc.ReplayEvent{
			Cycle: ev.Cycle, Src: ev.Src, Dst: ev.Dst, Meta: ev.Meta,
			Req: ev.Kind == trace.EventMessage,
		}
	}
	// Hash() memoizes lazily; force it here, before the fan-out, so the
	// workers only ever read it.
	hash := t.Hash()
	type job struct {
		topo   noc.Topology
		router noc.RouterKind
	}
	var jobs []job
	for _, topo := range topos {
		for _, router := range routers {
			jobs = append(jobs, job{topo, router})
		}
	}
	h := t.Header
	return runPoints(ctx, s, jobs, points, func(j job) (Result, error) {
		key := resultcache.NewKey("scenario/trace").
			Str("trace_sha256", hash).
			Str("topology", j.topo.Kind().String()).
			Str("router", j.router.String()).
			Sum()
		r := Result{
			Workload: WorkloadNoC.String(),
			Topology: j.topo.Kind().String(),
			Router:   j.router.String(),
			Pattern:  h.Pattern,
			Rate:     h.Rate,
			Seed:     h.Seed,
			Bursty:   h.Bursty,
		}
		err := cachedPoint(s.Cache, key, "trace", &r, func() (nocPointValue, error) {
			m, err := noc.MeasureReplayCtx(ctx, j.topo, noc.ReplayConfig{
				Router: j.router, Events: events,
				Warmup: h.Warmup, Measure: h.Measure,
			})
			return nocValueOf(m), err
		})
		return r, err
	})
}

// RecordCtx runs a single-point scenario with trace capture and returns
// the recorded trace alongside the run's results. NoC-synthetic points
// record flit-level injections through noc.TrafficConfig.Record; kernel
// points record eMPI message sends through the tie.SendRecorder hook.
// Recording detaches the result cache (a cache hit skips the simulation
// and would record nothing); the returned results are byte-identical to a
// cached run's, which the record/replay differential tests assert.
func RecordCtx(ctx context.Context, s *Scenario) (*trace.Trace, []Result, error) {
	kinds, err := s.workloadKinds()
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: %w", err)
	}
	if len(kinds) != 1 {
		return nil, nil, fmt.Errorf("scenario: recording needs a single workload, got %d", len(kinds))
	}
	record := specs[kinds[0]].record
	if record == nil {
		return nil, nil, fmt.Errorf("scenario: the %v workload cannot be recorded (record a %v or kernel run)", kinds[0], WorkloadNoC)
	}
	return record(ctx, s)
}
