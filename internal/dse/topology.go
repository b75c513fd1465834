package dse

// This file implements the topology ablation (experiment T-3): the same
// router under the same synthetic traffic swept over every topology kind,
// reporting per-fabric saturation throughput, deflection cost and buffer
// cost. This is the design-space view of the topology axis: the paper's
// folded torus against a non-wrapping mesh (same switch count, no wrap
// links — edge deflections get expensive) and a concentrated mesh (a
// quarter of the switches, four endpoints per local crossbar — cheaper
// fabric, thinner bisection per endpoint).

import (
	"context"
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/noc"
	"repro/internal/par"
)

// TopologyPoint is one (topology, rate) evaluation of the ablation sweep.
type TopologyPoint struct {
	Topology       noc.TopologyKind
	Rate           float64
	Throughput     float64 // delivered flits/endpoint/cycle
	MeanLatency    float64
	P99Latency     float64
	DeflectionRate float64
	PeakBuffer     int // worst per-switch buffer occupancy
}

// TopologyAblationOptions parameterizes TopologyAblationCtx. The zero value
// is not runnable; use DefaultTopologyAblationOptions.
type TopologyAblationOptions struct {
	// W, H size the endpoint grid (every fabric serves the same endpoint
	// count, so per-endpoint throughput is directly comparable).
	W, H    int
	Router  noc.RouterKind
	Pattern noc.Pattern
	Rates   []float64
	Warmup  int64
	Measure int64
	Seed    int64
	// Topologies defaults to every defined kind.
	Topologies []noc.TopologyKind
	// Parallelism bounds concurrent simulations; 0 means GOMAXPROCS.
	Parallelism int
}

// DefaultTopologyAblationOptions returns the calibrated T-3
// configuration: the paper's deflection router on an 8x8 endpoint grid
// (the cmesh folds it onto a 4x4 switch grid) under uniform traffic, the
// pattern every fabric serves without adversarial bias, swept from well
// below saturation to well past it.
func DefaultTopologyAblationOptions() TopologyAblationOptions {
	return TopologyAblationOptions{
		W: 8, H: 8,
		Router:  noc.RouterDeflection,
		Pattern: noc.Uniform,
		Rates:   []float64{0.05, 0.15, 0.3, 0.5, 0.8},
		Warmup:  500,
		Measure: 4000,
		Seed:    1,
	}
}

// TopologyAblationCtx sweeps topologies x rates on the fixed worker pool
// and returns one point per combination, topologies outermost, in
// deterministic order. Every listed pattern/topology combination must pass
// per-topology validation. It supports cooperative cancellation (see
// SweepCtx for the error shape).
func TopologyAblationCtx(ctx context.Context, o TopologyAblationOptions) ([]TopologyPoint, error) {
	kinds := o.Topologies
	if len(kinds) == 0 {
		kinds = noc.AllTopologies()
	}
	topos := make([]noc.Topology, len(kinds))
	for i, k := range kinds {
		topo, err := noc.NewTopologyOfKind(k, o.W, o.H)
		if err != nil {
			return nil, err
		}
		if err := noc.ValidatePattern(o.Pattern, topo); err != nil {
			return nil, err
		}
		topos[i] = topo
	}
	if len(o.Rates) == 0 {
		return nil, fmt.Errorf("dse: topology ablation needs at least one rate")
	}
	for _, r := range o.Rates {
		if r <= 0 || r > 1 {
			return nil, fmt.Errorf("dse: offered load %g outside (0, 1]", r)
		}
	}
	if o.Measure <= 0 {
		return nil, fmt.Errorf("dse: measurement window must be positive, got %d", o.Measure)
	}

	points := make([]TopologyPoint, len(topos)*len(o.Rates))
	if err := par.ForEachCtx(ctx, len(points), parallelismOr(o.Parallelism), func(i int) error {
		topo := topos[i/len(o.Rates)]
		rate := o.Rates[i%len(o.Rates)]
		m, err := noc.MeasureCtx(ctx, topo, noc.MeasureConfig{
			Router:  o.Router,
			Traffic: noc.TrafficConfig{Pattern: o.Pattern, Rate: rate},
			Warmup:  o.Warmup,
			Measure: o.Measure,
			Seed:    o.Seed,
		})
		if err != nil {
			return err
		}
		points[i] = TopologyPoint{
			Topology:       topo.Kind(),
			Rate:           rate,
			Throughput:     m.Throughput,
			MeanLatency:    m.MeanLatency,
			P99Latency:     m.P99Latency,
			DeflectionRate: m.DeflectionRate,
			PeakBuffer:     m.PeakBuffer,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return points, nil
}

// SaturationThroughputByTopology reduces ablation points to the
// saturation throughput per fabric: the highest delivered per-endpoint
// throughput the fabric reached at any offered load in the sweep.
func SaturationThroughputByTopology(points []TopologyPoint) map[noc.TopologyKind]float64 {
	sat := map[noc.TopologyKind]float64{}
	for _, p := range points {
		if p.Throughput > sat[p.Topology] {
			sat[p.Topology] = p.Throughput
		}
	}
	return sat
}

// PeakDeflectionRateByTopology reduces ablation points to the worst
// deflections-per-delivered-flit each fabric exhibited across the sweep —
// the deflection cost of losing wrap links (mesh) or sharing a switch
// between four endpoints (cmesh). Always 0 for buffered routers.
func PeakDeflectionRateByTopology(points []TopologyPoint) map[noc.TopologyKind]float64 {
	worst := map[noc.TopologyKind]float64{}
	for _, p := range points {
		if _, ok := worst[p.Topology]; !ok || p.DeflectionRate > worst[p.Topology] {
			worst[p.Topology] = p.DeflectionRate
		}
	}
	return worst
}

// PeakBufferByTopology reduces ablation points to the worst per-switch
// buffer occupancy each fabric ever needed across the sweep (always 0 for
// the bufferless routers).
func PeakBufferByTopology(points []TopologyPoint) map[noc.TopologyKind]int {
	peak := map[noc.TopologyKind]int{}
	for _, p := range points {
		if _, ok := peak[p.Topology]; !ok || p.PeakBuffer > peak[p.Topology] {
			peak[p.Topology] = p.PeakBuffer
		}
	}
	return peak
}

// TopologyAblationTable renders the ablation as an aligned table, one row
// per (topology, rate) with a per-fabric summary row of saturation
// throughput, worst deflection cost and peak buffering.
func TopologyAblationTable(o TopologyAblationOptions, points []TopologyPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "T-3 topology ablation: %dx%d endpoints, %v router, %v traffic, %d cycles/point\n",
		o.W, o.H, o.Router, o.Pattern, o.Measure)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "topology\trate\tthroughput\tmean-lat\tp99-lat\tdefl/flit\tpeak-buf\t")
	sat := SaturationThroughputByTopology(points)
	defl := PeakDeflectionRateByTopology(points)
	peak := PeakBufferByTopology(points)
	var last noc.TopologyKind = -1
	summary := func(k noc.TopologyKind) {
		fmt.Fprintf(w, "%v saturation\t\t%.3f\t\t\tmax %.2f\tmax %d\t\n", k, sat[k], defl[k], peak[k])
	}
	for _, p := range points {
		if p.Topology != last && last >= 0 {
			summary(last)
		}
		last = p.Topology
		fmt.Fprintf(w, "%v\t%.2f\t%.3f\t%.1f\t%.0f\t%.2f\t%d\t\n",
			p.Topology, p.Rate, p.Throughput, p.MeanLatency, p.P99Latency,
			p.DeflectionRate, p.PeakBuffer)
	}
	if last >= 0 {
		summary(last)
	}
	w.Flush()
	return b.String()
}
