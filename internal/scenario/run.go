package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/dse"
	"repro/internal/par"
	"repro/internal/resultcache"
)

// windowForkOff disables warm-snapshot sharing across measure_windows
// (each window then re-simulates its own warmup). Results are
// byte-identical either way — this is the escape hatch the CLI exposes
// as -no-fork, mirroring sim.SetDefaultFastForward/-no-ffwd.
var windowForkOff atomic.Bool

// SetWindowFork enables or disables warm-snapshot sharing for
// measure_windows sweeps (enabled by default).
func SetWindowFork(on bool) { windowForkOff.Store(!on) }

// WindowFork reports whether measure_windows sweeps share their warmup
// prefix through engine snapshots.
func WindowFork() bool { return !windowForkOff.Load() }

// Result is one evaluated sweep point. NoC-synthetic points fill the
// pattern/rate/seed axes and the network metrics; kernel points (jacobi,
// matmul, syncbench) fill the variant/cores/cache/policy axes and the
// metrics of their kernel.
type Result struct {
	Scenario string `json:"scenario"`
	Workload string `json:"workload"`

	// NoC axes.
	Topology string  `json:"topology,omitempty"`
	Router   string  `json:"router,omitempty"`
	Pattern  string  `json:"pattern,omitempty"`
	Rate     float64 `json:"rate,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Bursty   bool    `json:"bursty,omitempty"`

	// Kernel axes (shared by jacobi, matmul and syncbench).
	Cores   int    `json:"cores,omitempty"`
	CacheKB int    `json:"cache_kb,omitempty"`
	Policy  string `json:"policy,omitempty"`
	Variant string `json:"variant,omitempty"`

	// NoC metrics, over the measurement window only (PeakBuffer covers
	// the whole run: buffers fill during warmup too and hardware must be
	// sized for the worst case).
	Cycles         int64   `json:"cycles,omitempty"`     // measurement window length
	Delivered      int64   `json:"delivered,omitempty"`  // flits ejected in the window
	Throughput     float64 `json:"throughput,omitempty"` // delivered flits/node/cycle
	MeanLatency    float64 `json:"mean_latency,omitempty"`
	P99Latency     float64 `json:"p99_latency,omitempty"`
	DeflectionRate float64 `json:"deflection_rate,omitempty"` // deflections per delivered flit
	PeakBuffer     int     `json:"peak_buffer,omitempty"`     // worst per-switch buffer occupancy

	// Jacobi metrics.
	CyclesPerIter int64   `json:"cycles_per_iter,omitempty"`
	MissRate      float64 `json:"miss_rate,omitempty"`
	AreaMM2       float64 `json:"area_mm2,omitempty"`
	Speedup       float64 `json:"speedup,omitempty"` // also filled for matmul/syncbench

	// Service axes (the topology/router/seed axes above are shared) and
	// metrics: request counts, the per-request latency breakdown means
	// (queue + net_out + server + net_back = mean_latency), and the
	// server-side p99. Cycles/Throughput/MeanLatency/P99Latency/PeakBuffer
	// above are shared too — Throughput is completed requests per client
	// per cycle on service rows.
	Servers     int     `json:"servers,omitempty"`
	ArrivalRate float64 `json:"arrival_rate,omitempty"`
	HotspotSkew float64 `json:"hotspot_skew,omitempty"`
	Issued      int64   `json:"issued,omitempty"`
	Completed   int64   `json:"completed,omitempty"`
	InFlight    int64   `json:"in_flight,omitempty"`
	Throttled   int64   `json:"throttled,omitempty"`
	MeanQueue   float64 `json:"mean_queue,omitempty"`
	MeanNetOut  float64 `json:"mean_net_out,omitempty"`
	MeanServer  float64 `json:"mean_server,omitempty"`
	MeanNetBack float64 `json:"mean_net_back,omitempty"`
	P99Server   float64 `json:"p99_server,omitempty"`

	// Matmul metrics: barrier-to-barrier total and the B-distribution
	// phase alone.
	TotalCycles    int64 `json:"total_cycles,omitempty"`
	TransferCycles int64 `json:"transfer_cycles,omitempty"`
	// Syncbench metric: mean cycles per synchronization episode.
	CyclesPerRound int64 `json:"cycles_per_round,omitempty"`
	// Shared kernel-side counters (matmul and syncbench rows): memory-
	// node occupancy versus message-path traffic.
	MPMMUBusy int64 `json:"mpmmu_busy,omitempty"`
	NoCFlits  int64 `json:"noc_flits,omitempty"`
}

// RunCtx executes the scenario's full sweep cross-product and returns one
// Result per point, in deterministic axis order (independent of the
// execution interleaving): one block per workload, each produced by its
// kind's spec. The scenario must have passed Validate (Load and Parse
// guarantee this). A canceled context stops dispatching new sweep points,
// interrupts in-flight simulations within a few thousand simulated
// cycles, and returns the context's error (wrapped in a par.CanceledError
// recording completed-point counts). The sweep is all-or-nothing either
// way: on any error no results are returned.
func RunCtx(ctx context.Context, s *Scenario) ([]Result, error) {
	kinds, err := s.workloadKinds()
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var all []Result
	for _, k := range kinds {
		results, err := specs[k].run(ctx, s, nil)
		if err != nil {
			return nil, err
		}
		all = append(all, results...)
	}
	return all, nil
}

// DSEPoints converts Jacobi results back to dse.Point rows, so scenario
// output can reuse the dse table renderers and golden tests can compare
// against dse.Sweep byte-for-byte.
func DSEPoints(results []Result) []dse.Point {
	points := make([]dse.Point, 0, len(results))
	for _, r := range results {
		if r.Workload != WorkloadJacobi.String() {
			continue
		}
		pol := cache.WriteBack
		if r.Policy == cache.WriteThrough.String() {
			pol = cache.WriteThrough
		}
		points = append(points, dse.Point{
			Compute: r.Cores, CacheKB: r.CacheKB, Policy: pol,
			CyclesPerIter: r.CyclesPerIter,
			MissRate:      r.MissRate,
			AreaMM2:       r.AreaMM2,
			Speedup:       r.Speedup,
			Label:         fmt.Sprintf("%dP_%dk$", r.Cores, r.CacheKB),
		})
	}
	return points
}

// runPoints executes jobs — one kind's full canonical point order — on
// the shared fixed worker pool (par.ForEachCtx, as dse.SweepCtx does),
// restricted to the listed indices when points is non-nil. Every point is
// an independent deterministic simulation, so each result slot is written
// by exactly one job and the whole set is reproducible.
func runPoints[J any](ctx context.Context, s *Scenario, jobs []J, points []int, run func(J) (Result, error)) ([]Result, error) {
	if points != nil {
		sel := make([]J, len(points))
		for i, p := range points {
			if p < 0 || p >= len(jobs) {
				return nil, fmt.Errorf("scenario: point filter index %d outside the %d-point sweep", p, len(jobs))
			}
			sel[i] = jobs[p]
		}
		jobs = sel
	}
	results := make([]Result, len(jobs))
	if err := par.ForEachCtx(ctx, len(jobs), s.Parallelism, func(i int) error {
		r, err := run(jobs[i])
		if err != nil {
			return err
		}
		r.Scenario = s.Name
		results[i] = r
		return nil
	}); err != nil {
		return nil, err
	}
	return results, nil
}

// cachedPoint fills r's metrics with one point's value V, recalled from
// the result cache (rc nil means cache off) or computed and stored on a
// miss. V's JSON keys are the Result keys of the metrics it carries, so
// the value decodes straight onto the row; hit or miss it comes back
// through that encoding, so cached and fresh points are byte-identical.
func cachedPoint[V any](rc *resultcache.Cache, key resultcache.Key, what string, r *Result, compute func() (V, error)) error {
	buf, _, err := rc.GetOrCompute(key, func() ([]byte, error) {
		v, err := compute()
		if err != nil {
			return nil, err
		}
		return json.Marshal(v)
	})
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, r); err != nil {
		return fmt.Errorf("scenario: decoding cached %s point %s: %w", what, key, err)
	}
	return nil
}
