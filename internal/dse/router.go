package dse

// This file implements the router ablation (experiment R-1): the same
// synthetic traffic swept over every router implementation, reporting the
// saturation throughput and the peak buffer occupancy per router. This is
// the design-space view of the paper's central network argument — the
// deflection router trades a little high-load throughput for zero
// buffering — made runnable over the full router axis (deflection, XY,
// adaptive, wormhole-VC).

import (
	"context"
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/noc"
	"repro/internal/par"
)

// RouterPoint is one (router, rate) evaluation of the ablation sweep.
type RouterPoint struct {
	Router         noc.RouterKind
	Rate           float64
	Throughput     float64 // delivered flits/node/cycle
	MeanLatency    float64
	P99Latency     float64
	DeflectionRate float64
	PeakBuffer     int // worst per-switch buffer occupancy
}

// RouterAblationOptions parameterizes RouterAblationCtx. The zero value is
// not runnable; use DefaultRouterAblationOptions.
type RouterAblationOptions struct {
	W, H    int
	Pattern noc.Pattern
	Rates   []float64
	Warmup  int64
	Measure int64
	Seed    int64
	// Routers defaults to every defined kind.
	Routers []noc.RouterKind
	// Parallelism bounds concurrent simulations; 0 means GOMAXPROCS.
	Parallelism int
}

// DefaultRouterAblationOptions returns the calibrated R-1 configuration:
// the paper's 4x4 torus under transpose traffic (the adversarial pattern
// for dimension-ordered routing, and the one BenchmarkDeflectionVsXY
// already uses), swept from well below saturation to well past it.
func DefaultRouterAblationOptions() RouterAblationOptions {
	return RouterAblationOptions{
		W: 4, H: 4,
		Pattern: noc.Transpose,
		Rates:   []float64{0.05, 0.2, 0.4, 0.6, 0.9},
		Warmup:  500,
		Measure: 4000,
		Seed:    1,
	}
}

// RouterAblationCtx sweeps routers x rates on the fixed worker pool and
// returns one point per combination, routers outermost, in deterministic
// order. It supports cooperative cancellation (see SweepCtx for the error
// shape).
func RouterAblationCtx(ctx context.Context, o RouterAblationOptions) ([]RouterPoint, error) {
	topo, err := noc.NewTopology(o.W, o.H)
	if err != nil {
		return nil, err
	}
	if err := noc.ValidatePattern(o.Pattern, topo); err != nil {
		return nil, err
	}
	if len(o.Rates) == 0 {
		return nil, fmt.Errorf("dse: router ablation needs at least one rate")
	}
	for _, r := range o.Rates {
		if r <= 0 || r > 1 {
			return nil, fmt.Errorf("dse: offered load %g outside (0, 1]", r)
		}
	}
	if o.Measure <= 0 {
		return nil, fmt.Errorf("dse: measurement window must be positive, got %d", o.Measure)
	}
	routers := o.Routers
	if len(routers) == 0 {
		routers = noc.AllRouters()
	}

	points := make([]RouterPoint, len(routers)*len(o.Rates))
	if err := par.ForEachCtx(ctx, len(points), parallelismOr(o.Parallelism), func(i int) error {
		kind := routers[i/len(o.Rates)]
		rate := o.Rates[i%len(o.Rates)]
		m, err := noc.MeasureCtx(ctx, topo, noc.MeasureConfig{
			Router:  kind,
			Traffic: noc.TrafficConfig{Pattern: o.Pattern, Rate: rate},
			Warmup:  o.Warmup,
			Measure: o.Measure,
			Seed:    o.Seed,
		})
		if err != nil {
			return err
		}
		points[i] = RouterPoint{
			Router:         kind,
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

// SaturationThroughput reduces ablation points to the saturation
// throughput per router: the highest delivered throughput the router
// reached at any offered load in the sweep.
func SaturationThroughput(points []RouterPoint) map[noc.RouterKind]float64 {
	sat := map[noc.RouterKind]float64{}
	for _, p := range points {
		if p.Throughput > sat[p.Router] {
			sat[p.Router] = p.Throughput
		}
	}
	return sat
}

// PeakBufferByRouter reduces ablation points to the worst per-switch
// buffer occupancy each router ever needed across the sweep (always 0 for
// the bufferless kinds).
func PeakBufferByRouter(points []RouterPoint) map[noc.RouterKind]int {
	peak := map[noc.RouterKind]int{}
	for _, p := range points {
		if _, ok := peak[p.Router]; !ok || p.PeakBuffer > peak[p.Router] {
			peak[p.Router] = p.PeakBuffer
		}
	}
	return peak
}

// RouterAblationTable renders the ablation as an aligned table, one row
// per (router, rate) with a per-router summary row of saturation
// throughput and peak buffering.
func RouterAblationTable(o RouterAblationOptions, points []RouterPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "R-1 router ablation: %dx%d torus, %v traffic, %d cycles/point\n",
		o.W, o.H, o.Pattern, o.Measure)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "router\trate\tthroughput\tmean-lat\tp99-lat\tdefl/flit\tpeak-buf\t")
	sat := SaturationThroughput(points)
	peak := PeakBufferByRouter(points)
	var last noc.RouterKind = -1
	for _, p := range points {
		if p.Router != last && last >= 0 {
			fmt.Fprintf(w, "%v saturation\t\t%.3f\t\t\t\tmax %d\t\n", last, sat[last], peak[last])
		}
		last = p.Router
		fmt.Fprintf(w, "%v\t%.2f\t%.3f\t%.1f\t%.0f\t%.2f\t%d\t\n",
			p.Router, p.Rate, p.Throughput, p.MeanLatency, p.P99Latency,
			p.DeflectionRate, p.PeakBuffer)
	}
	if last >= 0 {
		fmt.Fprintf(w, "%v saturation\t\t%.3f\t\t\t\tmax %d\t\n", last, sat[last], peak[last])
	}
	w.Flush()
	return b.String()
}
