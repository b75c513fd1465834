package scenario

import (
	"cmp"
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/noc"
	"repro/internal/resultcache"
	"repro/internal/trace"
)

// NoCConfig describes a synthetic-traffic experiment on the bare network.
type NoCConfig struct {
	// The endpoint grid and the topology x router axes. Every listed
	// pattern must be valid on every listed topology (validation is
	// per-topology: bit patterns need a power-of-two endpoint count,
	// transpose a square endpoint grid).
	fabric
	// Patterns lists traffic patterns by name (see noc.PatternNames);
	// one sweep axis.
	Patterns []string `json:"patterns"`
	// Rates lists offered loads in flits/node/cycle, each in (0, 1];
	// one sweep axis.
	Rates []float64 `json:"rates"`
	// HotspotNode is the destination for the hotspot pattern.
	HotspotNode int `json:"hotspot_node,omitempty"`
	// QueueCap bounds each source queue (default 16).
	QueueCap int `json:"queue_cap,omitempty"`
	// Burst, when present, gates every source through a two-state on/off
	// modulator with the given mean burst/gap lengths in cycles.
	Burst *BurstConfig `json:"burst,omitempty"`
	// WarmupCycles run before measurement starts (default 0).
	WarmupCycles int64 `json:"warmup_cycles,omitempty"`
	// MeasureCycles is the measurement window (default 5000). Mutually
	// exclusive with MeasureWindows.
	MeasureCycles int64 `json:"measure_cycles,omitempty"`
	// MeasureWindows sweeps the measurement-window length itself: every
	// point runs once per listed window, and all windows of one
	// (topology, router, pattern, rate, seed) point share a single warmup
	// prefix via an engine snapshot instead of re-simulating it (see
	// noc.MeasureWindowsCtx; disable with SetWindowFork or the CLI's
	// -no-fork). Results are byte-identical to independent runs either
	// way. Mutually exclusive with MeasureCycles.
	MeasureWindows []int64 `json:"measure_windows,omitempty"`
}

// resolve builds the section's fabrics and resolves its router and
// pattern axes, checking every pattern on every fabric.
func (c *NoCConfig) resolve() ([]noc.Topology, []noc.RouterKind, []noc.Pattern, error) {
	topos, routers, err := c.build("noc")
	if err != nil {
		return nil, nil, nil, err
	}
	if len(c.Patterns) == 0 {
		return nil, nil, nil, fmt.Errorf(`"noc.patterns" must list at least one of: %s`,
			strings.Join(noc.PatternNames(), ", "))
	}
	patterns, err := parseAxis("noc.patterns", c.Patterns, noc.ParsePattern)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, p := range patterns {
		for _, topo := range topos {
			if err := noc.ValidatePattern(p, topo); err != nil {
				return nil, nil, nil, fmt.Errorf(`"noc.patterns": %w`, err)
			}
		}
	}
	return topos, routers, patterns, nil
}

func validateNoC(s *Scenario, _ []WorkloadKind) error {
	if s.NoC == nil {
		return fmt.Errorf(`workload %v needs a "noc" section`, WorkloadNoC)
	}
	return s.NoC.validate()
}

func (c *NoCConfig) validate() error {
	topos, _, _, err := c.resolve()
	if err != nil {
		return err
	}
	if len(c.Rates) == 0 {
		return fmt.Errorf(`"noc.rates" must list at least one offered load in (0, 1]`)
	}
	for _, r := range c.Rates {
		if r <= 0 || r > 1 {
			return fmt.Errorf(`"noc.rates": offered load %g outside (0, 1]`, r)
		}
	}
	if c.HotspotNode < 0 || c.HotspotNode >= topos[0].NumEndpoints() {
		return fmt.Errorf(`"noc.hotspot_node" %d outside the %dx%d endpoint grid (0..%d)`,
			c.HotspotNode, c.Width, c.Height, topos[0].NumEndpoints()-1)
	}
	if c.QueueCap < 0 {
		return fmt.Errorf(`"noc.queue_cap" must be >= 0, got %d`, c.QueueCap)
	}
	if c.Burst != nil {
		if err := c.Burst.noc().Validate(); err != nil {
			return fmt.Errorf(`"noc.burst": %w`, err)
		}
	}
	if c.WarmupCycles < 0 {
		return fmt.Errorf(`"noc.warmup_cycles" must be >= 0, got %d`, c.WarmupCycles)
	}
	if c.MeasureCycles < 0 {
		return fmt.Errorf(`"noc.measure_cycles" must be >= 0, got %d`, c.MeasureCycles)
	}
	if len(c.MeasureWindows) > 0 {
		if c.MeasureCycles != 0 {
			return fmt.Errorf(`set either "noc.measure_cycles" or "noc.measure_windows", not both`)
		}
		for _, w := range c.MeasureWindows {
			if w <= 0 {
				return fmt.Errorf(`"noc.measure_windows": window %d must be positive`, w)
			}
		}
	}
	return nil
}

// nocAxes is the noc-synthetic sweep: topologies x routers x patterns x
// rates x seeds, times the measurement windows when they are swept.
func nocAxes(s *Scenario) []axis {
	c := s.NoC
	axes := append(c.axes(), axis{len(c.Patterns), "patterns"}, axis{len(c.Rates), "rates"}, axis{len(s.seedList()), "seeds"})
	if w := len(c.MeasureWindows); w > 0 {
		axes = append(axes, axis{w, "windows"})
	}
	return axes
}

// measureCycles resolves the fixed measurement window (default 5000).
func (c *NoCConfig) measureCycles() int64 { return cmp.Or(c.MeasureCycles, 5000) }

// nocPoint is one (topology, router, pattern, rate, seed) point of a
// noc-synthetic sweep.
type nocPoint struct {
	topo    noc.Topology
	router  noc.RouterKind
	pattern noc.Pattern
	rate    float64
	seed    int64
	// Window-sweep points: every window of one (topology, router,
	// pattern, rate, seed) tuple shares a group, so the warmup prefix
	// simulates once and each window forks off its warm snapshot.
	window int
	group  *windowGroup
}

// runNoC expands topologies x routers x patterns x rates x seeds (x
// windows) and executes the points on the shared worker pool. A points
// filter restricts the run; window groups still form over the canonical
// order, so only windows that landed in this shard share a warmup prefix.
func runNoC(ctx context.Context, s *Scenario, points []int) ([]Result, error) {
	c := s.NoC
	topos, routers, patterns, err := c.resolve()
	if err != nil {
		return nil, err
	}
	var jobs []nocPoint
	for _, topo := range topos {
		for _, router := range routers {
			for _, p := range patterns {
				for _, rate := range c.Rates {
					for _, seed := range s.seedList() {
						pt := nocPoint{topo: topo, router: router, pattern: p, rate: rate, seed: seed}
						if len(c.MeasureWindows) == 0 {
							jobs = append(jobs, pt)
							continue
						}
						pt.group = &windowGroup{}
						for wi := range c.MeasureWindows {
							pt.window = wi
							jobs = append(jobs, pt)
						}
					}
				}
			}
		}
	}
	// Recording bypasses the cache: a hit would skip the simulation and
	// record nothing (RecordCtx also detaches the cache, this is the
	// defence in depth for hand-wired scenarios).
	rc := s.Cache
	if s.Record != nil {
		rc = nil
	}
	return runPoints(ctx, s, jobs, points, func(p nocPoint) (Result, error) {
		r := Result{
			Workload: WorkloadNoC.String(),
			Topology: p.topo.Kind().String(),
			Router:   p.router.String(),
			Pattern:  p.pattern.String(),
			Rate:     p.rate,
			Seed:     p.seed,
			Bursty:   c.Burst != nil,
		}
		err := cachedPoint(rc, p.key(c), "noc", &r, func() (nocPointValue, error) {
			return p.measure(ctx, c, s.Record)
		})
		return r, err
	})
}

// windowGroup computes one warm-prefix group of a measure_windows sweep
// exactly once: however many of its windows miss the result cache, the
// first to need data runs noc.MeasureWindowsCtx for the whole group and
// the rest share the measurements. A fully cache-served group never
// simulates at all.
type windowGroup struct {
	once sync.Once
	ms   []noc.Measurement
	err  error
}

func (g *windowGroup) measurements(ctx context.Context, topo noc.Topology, mc noc.MeasureConfig, windows []int64) ([]noc.Measurement, error) {
	g.once.Do(func() {
		g.ms, g.err = noc.MeasureWindowsCtx(ctx, topo, mc, windows, WindowFork())
	})
	return g.ms, g.err
}

// nocPointValue is the cached measurement of one noc-synthetic or trace
// point: the raw noc.Measure metrics only, under their Result keys; axis
// labels come from the job.
type nocPointValue struct {
	Cycles         int64   `json:"cycles"`
	Delivered      int64   `json:"delivered"`
	Throughput     float64 `json:"throughput"`
	MeanLatency    float64 `json:"mean_latency"`
	P99Latency     float64 `json:"p99_latency"`
	DeflectionRate float64 `json:"deflection_rate"`
	PeakBuffer     int     `json:"peak_buffer"`
}

// key derives the content address of the point from every input the
// measurement depends on (the defaults are resolved first, so an explicit
// "measure_cycles": 5000 keys identically to the default). A window
// point's key is exactly the key of a plain measure_cycles point with
// that window length: warm-snapshot forking is byte-identical to
// independent simulation (noc.MeasureWindowsCtx's contract, enforced by
// the differential tests), so the two entry kinds interchange in the
// store.
func (p nocPoint) key(c *NoCConfig) resultcache.Key {
	measure := c.measureCycles()
	if p.group != nil {
		measure = c.MeasureWindows[p.window]
	}
	b := resultcache.NewKey("scenario/noc").
		Str("topology", p.topo.Kind().String()).
		Int("width", int64(c.Width)).
		Int("height", int64(c.Height)).
		Str("router", p.router.String()).
		Str("pattern", p.pattern.String()).
		Float("rate", p.rate).
		Int("seed", p.seed).
		Int("hotspot_node", int64(c.HotspotNode)).
		Int("queue_cap", int64(c.QueueCap)).
		Int("warmup_cycles", c.WarmupCycles).
		Int("measure_cycles", measure)
	if c.Burst != nil {
		b.Float("burst_mean_on", c.Burst.MeanOn).Float("burst_mean_off", c.Burst.MeanOff)
	}
	return b.Sum()
}

// measure simulates the point through noc.MeasureCtx, the execution path
// shared with dse.RouterAblationCtx, dse.TopologyAblationCtx and
// cmd/medea-noc; a window point takes its window from the group's shared
// run instead.
func (p nocPoint) measure(ctx context.Context, c *NoCConfig, rec noc.InjectionRecorder) (nocPointValue, error) {
	mc := noc.MeasureConfig{
		Router: p.router,
		Traffic: noc.TrafficConfig{
			Pattern:     p.pattern,
			Rate:        p.rate,
			HotspotNode: c.HotspotNode,
			QueueCap:    c.QueueCap,
			Burst:       c.Burst.noc(),
		},
		Warmup: c.WarmupCycles,
		Seed:   p.seed,
	}
	if p.group != nil {
		ms, err := p.group.measurements(ctx, p.topo, mc, c.MeasureWindows)
		if err != nil {
			return nocPointValue{}, err
		}
		return nocValueOf(ms[p.window]), nil
	}
	mc.Measure = c.measureCycles()
	mc.Traffic.Record = rec
	m, err := noc.MeasureCtx(ctx, p.topo, mc)
	return nocValueOf(m), err
}

// nocValueOf projects a Measurement onto the cached codec. CyclesSkipped
// is deliberately dropped: it counts simulation work, not simulated
// behaviour, so cached and fresh points stay byte-identical.
func nocValueOf(m noc.Measurement) nocPointValue {
	return nocPointValue{
		Cycles:         m.Cycles,
		Delivered:      m.Delivered,
		Throughput:     m.Throughput,
		MeanLatency:    m.MeanLatency,
		P99Latency:     m.P99Latency,
		DeflectionRate: m.DeflectionRate,
		PeakBuffer:     m.PeakBuffer,
	}
}

// recordNoC captures one noc-synthetic point into a trace whose header
// carries the point's full provenance, so replaying it reproduces the
// run exactly.
func recordNoC(ctx context.Context, s *Scenario) (*trace.Trace, []Result, error) {
	c := s.NoC
	if len(c.MeasureWindows) > 0 {
		return nil, nil, fmt.Errorf("scenario: recording does not support measure_windows (a trace has one fixed horizon); use measure_cycles")
	}
	if n := s.NumPoints(); n != 1 {
		return nil, nil, fmt.Errorf("scenario: recording needs a single-point scenario (one topology, router, pattern, rate and seed), got %d points", n)
	}
	topos, routers, patterns, err := c.resolve()
	if err != nil {
		return nil, nil, err
	}
	t := trace.New(trace.Header{
		Width: c.Width, Height: c.Height,
		Topology: topos[0].Kind().String(),
		Router:   routers[0].String(),
		Pattern:  patterns[0].String(),
		Rate:     c.Rates[0],
		Seed:     s.seedList()[0],
		Bursty:   c.Burst != nil,
		QueueCap: c.QueueCap,
		Warmup:   c.WarmupCycles,
		Measure:  c.measureCycles(),
	})
	run := *s
	run.Cache = nil
	run.Shard = nil
	run.Record = t
	results, err := RunCtx(ctx, &run)
	if err != nil {
		return nil, nil, err
	}
	return t, results, nil
}
