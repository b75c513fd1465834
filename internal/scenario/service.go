package scenario

import (
	"cmp"
	"context"
	"fmt"

	"repro/internal/noc"
	"repro/internal/resultcache"
)

// ServiceConfig describes a request/response service experiment on the
// bare network: the last Servers endpoints answer requests issued
// open-loop by every other endpoint.
type ServiceConfig struct {
	// The endpoint grid and the topology x router axes (as NoCConfig).
	fabric
	// Servers is how many endpoints (the highest-numbered ones) serve
	// requests; must leave at least one client.
	Servers int `json:"servers"`
	// ArrivalRates lists per-client request probabilities per cycle, each
	// in (0, 1]; one sweep axis.
	ArrivalRates []float64 `json:"arrival_rates"`
	// ThinkTime is the server-side service time per request in cycles
	// (0 and 1 are equivalent; see noc.ServiceMeasureConfig).
	ThinkTime int64 `json:"think_time,omitempty"`
	// ResponseFlits is the response size in flits (default 1).
	ResponseFlits int `json:"response_flits,omitempty"`
	// HotspotSkew is the probability a request targets the first server
	// instead of a uniformly random one (0 = uniform).
	HotspotSkew float64 `json:"hotspot_skew,omitempty"`
	// QueueCap bounds each client's source queue (default 16).
	QueueCap int `json:"queue_cap,omitempty"`
	// Burst, when present, gates client arrivals through the two-state
	// modulator.
	Burst *BurstConfig `json:"burst,omitempty"`
	// WarmupCycles run before measurement starts (default 0).
	WarmupCycles int64 `json:"warmup_cycles,omitempty"`
	// MeasureCycles is the measurement window (default 5000).
	MeasureCycles int64 `json:"measure_cycles,omitempty"`
}

// serviceMisuse points a "noc" section on the service workload at where
// its axes belong.
func serviceMisuse(_ *Scenario, sec section) error {
	if sec != secNoC {
		return nil
	}
	return fmt.Errorf(`the "noc" section has no effect on workload %v; remove it (the sweep axes live under "service")`, WorkloadService)
}

func validateService(s *Scenario, _ []WorkloadKind) error {
	if s.Service == nil {
		return fmt.Errorf(`workload %v needs a "service" section`, WorkloadService)
	}
	return s.Service.validate()
}

func (c *ServiceConfig) validate() error {
	topos, _, err := c.build("service")
	if err != nil {
		return err
	}
	if c.Servers < 1 {
		return fmt.Errorf(`"service.servers" must be >= 1, got %d`, c.Servers)
	}
	endpoints := topos[0].NumEndpoints()
	if c.Servers >= endpoints {
		return fmt.Errorf(`"service.servers": %d servers on the %dx%d grid's %d endpoints must leave at least one client; use at most %d servers`,
			c.Servers, c.Width, c.Height, endpoints, endpoints-1)
	}
	if len(c.ArrivalRates) == 0 {
		return fmt.Errorf(`"service.arrival_rates" must list at least one per-client rate in (0, 1]`)
	}
	for _, r := range c.ArrivalRates {
		if r <= 0 || r > 1 {
			return fmt.Errorf(`"service.arrival_rates": rate %g outside (0, 1]`, r)
		}
	}
	if c.ThinkTime < 0 {
		return fmt.Errorf(`"service.think_time" must be >= 0, got %d`, c.ThinkTime)
	}
	if c.ResponseFlits < 0 {
		return fmt.Errorf(`"service.response_flits" must be >= 0, got %d`, c.ResponseFlits)
	}
	if c.HotspotSkew < 0 || c.HotspotSkew > 1 {
		return fmt.Errorf(`"service.hotspot_skew" must be in [0, 1], got %g`, c.HotspotSkew)
	}
	if c.QueueCap < 0 {
		return fmt.Errorf(`"service.queue_cap" must be >= 0, got %d`, c.QueueCap)
	}
	if c.Burst != nil {
		if err := c.Burst.noc().Validate(); err != nil {
			return fmt.Errorf(`"service.burst": %w`, err)
		}
	}
	if c.WarmupCycles < 0 {
		return fmt.Errorf(`"service.warmup_cycles" must be >= 0, got %d`, c.WarmupCycles)
	}
	if c.MeasureCycles < 0 {
		return fmt.Errorf(`"service.measure_cycles" must be >= 0, got %d`, c.MeasureCycles)
	}
	return nil
}

// serviceAxes is the service sweep: topologies x routers x arrival rates
// x seeds.
func serviceAxes(s *Scenario) []axis {
	c := s.Service
	return append(c.axes(), axis{len(c.ArrivalRates), "rates"}, axis{len(s.seedList()), "seeds"})
}

// servicePointValue is the cached measurement of one service point; like
// nocPointValue it drops CyclesSkipped so cached and fresh points stay
// byte-identical, keeps the Result keys, and leaves the axis labels to
// the job.
type servicePointValue struct {
	Cycles      int64   `json:"cycles"`
	Issued      int64   `json:"issued"`
	Completed   int64   `json:"completed"`
	InFlight    int64   `json:"in_flight"`
	Throttled   int64   `json:"throttled"`
	Throughput  float64 `json:"throughput"`
	MeanQueue   float64 `json:"mean_queue"`
	MeanNetOut  float64 `json:"mean_net_out"`
	MeanServer  float64 `json:"mean_server"`
	MeanNetBack float64 `json:"mean_net_back"`
	MeanLatency float64 `json:"mean_latency"`
	P99Latency  float64 `json:"p99_latency"`
	P99Server   float64 `json:"p99_server"`
	PeakBuffer  int     `json:"peak_buffer"`
}

// runService expands topologies x routers x arrival_rates x seeds and
// simulates each request/response point through noc.MeasureServiceCtx on
// the shared worker pool, recalling points from the result cache when
// one is attached.
func runService(ctx context.Context, s *Scenario, points []int) ([]Result, error) {
	c := s.Service
	topos, routers, err := c.build("service")
	if err != nil {
		return nil, err
	}
	type job struct {
		topo   noc.Topology
		router noc.RouterKind
		rate   float64
		seed   int64
	}
	var jobs []job
	for _, topo := range topos {
		for _, router := range routers {
			for _, rate := range c.ArrivalRates {
				for _, seed := range s.seedList() {
					jobs = append(jobs, job{topo, router, rate, seed})
				}
			}
		}
	}
	measure := cmp.Or(c.MeasureCycles, 5000)
	return runPoints(ctx, s, jobs, points, func(j job) (Result, error) {
		// The key covers every input the measurement depends on, defaults
		// resolved first.
		b := resultcache.NewKey("scenario/service").
			Str("topology", j.topo.Kind().String()).
			Int("width", int64(c.Width)).
			Int("height", int64(c.Height)).
			Str("router", j.router.String()).
			Int("servers", int64(c.Servers)).
			Float("arrival_rate", j.rate).
			Int("think_time", c.ThinkTime).
			Int("response_flits", int64(c.ResponseFlits)).
			Float("hotspot_skew", c.HotspotSkew).
			Int("queue_cap", int64(c.QueueCap)).
			Int("seed", j.seed).
			Int("warmup_cycles", c.WarmupCycles).
			Int("measure_cycles", measure)
		if c.Burst != nil {
			b.Float("burst_mean_on", c.Burst.MeanOn).Float("burst_mean_off", c.Burst.MeanOff)
		}
		r := Result{
			Workload:    WorkloadService.String(),
			Topology:    j.topo.Kind().String(),
			Router:      j.router.String(),
			Seed:        j.seed,
			Bursty:      c.Burst != nil,
			Servers:     c.Servers,
			ArrivalRate: j.rate,
			HotspotSkew: c.HotspotSkew,
		}
		err := cachedPoint(s.Cache, b.Sum(), "service", &r, func() (servicePointValue, error) {
			m, err := noc.MeasureServiceCtx(ctx, j.topo, noc.ServiceMeasureConfig{
				Router:        j.router,
				Servers:       c.Servers,
				ArrivalRate:   j.rate,
				ThinkTime:     c.ThinkTime,
				ResponseFlits: c.ResponseFlits,
				HotspotSkew:   c.HotspotSkew,
				QueueCap:      c.QueueCap,
				Burst:         c.Burst.noc(),
				Warmup:        c.WarmupCycles,
				Measure:       measure,
				Seed:          j.seed,
			})
			return servicePointValue{
				Cycles:      m.Cycles,
				Issued:      m.Issued,
				Completed:   m.Completed,
				InFlight:    m.InFlight,
				Throttled:   m.Throttled,
				Throughput:  m.Throughput,
				MeanQueue:   m.MeanQueue,
				MeanNetOut:  m.MeanNetOut,
				MeanServer:  m.MeanServer,
				MeanNetBack: m.MeanNetBack,
				MeanLatency: m.MeanLatency,
				P99Latency:  m.P99Latency,
				P99Server:   m.P99Server,
				PeakBuffer:  m.PeakBuffer,
			}, err
		})
		return r, err
	})
}
