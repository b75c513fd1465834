package dse

// This file implements the service ablation (experiment S-2): the
// request/response workload swept over hotspot skews and arrival rates on
// the paper's 4x4 fabric, reporting how server-side tail latency departs
// from the network components as load concentrates on one server. It is
// the queueing-theory counterpart of the router ablation: R-1 stresses
// the fabric, S-2 shows the fabric staying flat while the hot server's
// queue, not the network, becomes the bottleneck.

import (
	"context"
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/noc"
	"repro/internal/par"
)

// ServicePoint is one (skew, rate) evaluation of the ablation sweep.
type ServicePoint struct {
	Skew        float64
	Rate        float64
	Completed   int64
	Throughput  float64 // completed requests/client/cycle
	MeanLatency float64
	P99Latency  float64
	MeanServer  float64
	MeanNet     float64 // request + response network components
	P99Server   float64 // the hotspot signal
}

// ServiceAblationOptions parameterizes ServiceAblationCtx. The zero value is
// not runnable; use DefaultServiceAblationOptions.
type ServiceAblationOptions struct {
	W, H      int
	Router    noc.RouterKind
	Servers   int
	ThinkTime int64
	Skews     []float64
	Rates     []float64
	Warmup    int64
	Measure   int64
	Seed      int64
	// Parallelism bounds concurrent simulations; 0 means GOMAXPROCS.
	Parallelism int
}

// DefaultServiceAblationOptions returns the calibrated S-2 configuration:
// 12 clients and 4 servers on the paper's 4x4 torus, arrival rates from
// lightly loaded to past the hot server's service capacity, and skews
// from uniform placement to near-total concentration.
func DefaultServiceAblationOptions() ServiceAblationOptions {
	return ServiceAblationOptions{
		W: 4, H: 4,
		Router:    noc.RouterDeflection,
		Servers:   4,
		ThinkTime: 8,
		Skews:     []float64{0, 0.5, 0.9},
		Rates:     []float64{0.01, 0.02, 0.04},
		Warmup:    500,
		Measure:   6000,
		Seed:      1,
	}
}

// ServiceAblationCtx sweeps skews x rates on the fixed worker pool and
// returns one point per combination, skews outermost, in deterministic
// order. It supports cooperative cancellation.
func ServiceAblationCtx(ctx context.Context, o ServiceAblationOptions) ([]ServicePoint, error) {
	topo, err := noc.NewTopology(o.W, o.H)
	if err != nil {
		return nil, err
	}
	if len(o.Skews) == 0 || len(o.Rates) == 0 {
		return nil, fmt.Errorf("dse: service ablation needs at least one skew and one rate")
	}
	if o.Measure <= 0 {
		return nil, fmt.Errorf("dse: measurement window must be positive, got %d", o.Measure)
	}

	points := make([]ServicePoint, len(o.Skews)*len(o.Rates))
	if err := par.ForEachCtx(ctx, len(points), parallelismOr(o.Parallelism), func(i int) error {
		skew := o.Skews[i/len(o.Rates)]
		rate := o.Rates[i%len(o.Rates)]
		m, err := noc.MeasureServiceCtx(ctx, topo, noc.ServiceMeasureConfig{
			Router:      o.Router,
			Servers:     o.Servers,
			ArrivalRate: rate,
			ThinkTime:   o.ThinkTime,
			HotspotSkew: skew,
			Warmup:      o.Warmup,
			Measure:     o.Measure,
			Seed:        o.Seed,
		})
		if err != nil {
			return err
		}
		points[i] = ServicePoint{
			Skew:        skew,
			Rate:        rate,
			Completed:   m.Completed,
			Throughput:  m.Throughput,
			MeanLatency: m.MeanLatency,
			P99Latency:  m.P99Latency,
			MeanServer:  m.MeanServer,
			MeanNet:     m.MeanNetOut + m.MeanNetBack,
			P99Server:   m.P99Server,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return points, nil
}

// P99ServerBySkew reduces ablation points to the worst server-side p99
// each skew reached across the rate sweep — the single number that shows
// concentration, not fabric congestion, driving the tail.
func P99ServerBySkew(points []ServicePoint) map[float64]float64 {
	worst := map[float64]float64{}
	for _, p := range points {
		if p.P99Server > worst[p.Skew] {
			worst[p.Skew] = p.P99Server
		}
	}
	return worst
}

// ServiceAblationTable renders the ablation as an aligned table, one row
// per (skew, rate) with a per-skew summary row of the worst server p99.
func ServiceAblationTable(o ServiceAblationOptions, points []ServicePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "S-2 service ablation: %dx%d torus, %v router, %d servers, think %d, %d cycles/point\n",
		o.W, o.H, o.Router, o.Servers, o.ThinkTime, o.Measure)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "skew\trate\tdone\tthroughput\tmean-lat\tp99-lat\tserver\tnet\tp99-srv\t")
	worst := P99ServerBySkew(points)
	last := -1.0
	for _, p := range points {
		if p.Skew != last && last >= 0 {
			fmt.Fprintf(w, "skew %.2f worst p99-srv\t\t\t\t\t\t\t\t%.0f\t\n", last, worst[last])
		}
		last = p.Skew
		fmt.Fprintf(w, "%.2f\t%.3f\t%d\t%.4f\t%.1f\t%.0f\t%.1f\t%.1f\t%.0f\t\n",
			p.Skew, p.Rate, p.Completed, p.Throughput, p.MeanLatency, p.P99Latency,
			p.MeanServer, p.MeanNet, p.P99Server)
	}
	if last >= 0 {
		fmt.Fprintf(w, "skew %.2f worst p99-srv\t\t\t\t\t\t\t\t%.0f\t\n", last, worst[last])
	}
	w.Flush()
	return b.String()
}
