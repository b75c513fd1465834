package scenario

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/dse"
	"repro/internal/trace"
)

// WorkloadKind selects what a scenario point simulates. Every kind is
// resolved by name through ParseWorkload (mirroring
// noc.ParseRouter/ParseTopology) and described by one entry of the spec
// table below, which every listing flag, validation message, runner,
// renderer and fuzz corpus reads.
type WorkloadKind int

// The six workload kinds. The first three are compute kernels on the full
// MEDEA system (cores + caches + MPMMU over the NoC), sharing the kernel
// sweep axes (variants x policies x caches x cores) and the
// dse.KernelSweepCtx execution path; the rest drive the bare network:
// noc-synthetic with generated traffic, trace with recorded traffic, and
// service with request/response traffic.
const (
	// WorkloadJacobi runs the paper's Jacobi application: per-iteration
	// halo exchange, the latency-bound communication profile.
	WorkloadJacobi WorkloadKind = iota
	// WorkloadMatmul runs the future-work matrix multiply: one bulk
	// broadcast, the bandwidth-bound communication profile.
	WorkloadMatmul
	// WorkloadSyncbench runs bare synchronization episodes: barriers with
	// no compute around them.
	WorkloadSyncbench
	// WorkloadNoC runs synthetic traffic on the bare network.
	WorkloadNoC
	// WorkloadTrace replays a recorded trace file (see internal/trace)
	// through any router x topology on the bare network.
	WorkloadTrace
	// WorkloadService runs request/response traffic on the bare network:
	// client endpoints issue requests to server endpoints and await
	// responses, with per-request latency breakdowns.
	WorkloadService

	// numWorkloads counts the defined workload kinds (keep it last).
	numWorkloads
)

// workloadSpec is everything the package knows about one workload kind.
// Adding a kind means adding a constant above and its entry in specs;
// nothing else in the package switches on the kind.
type workloadSpec struct {
	// name is the scenario JSON and CLI vocabulary.
	name string
	// kernel is non-nil exactly for the compute kernels, the kinds that
	// may share one sweep through the "workloads" axis.
	kernel *kernelSpec
	// section is the JSON section the kind owns; every other section is
	// rejected as having no effect.
	section section
	// subject names the kind in those rejections.
	subject string
	// misuse, when set, may word the rejection of a foreign section more
	// precisely than the generic "has no effect" (nil falls back to it).
	misuse func(s *Scenario, sec section) error
	// validate checks the owned section; kinds is the workload axis.
	validate func(s *Scenario, kinds []WorkloadKind) error
	// axes lists the kind's sweep axes in canonical order, outermost
	// first: the point count is their product.
	axes func(s *Scenario) []axis
	// run executes the listed canonical-order point indices (strictly
	// increasing, in range), or every point when points is nil, returning
	// one Result per point in order. Sharded runs (non-nil points) leave
	// kernel Speedup zero: MergeShards recomputes it over the full series.
	run func(ctx context.Context, s *Scenario, points []int) ([]Result, error)
	// record runs a single-point scenario with trace capture; nil means
	// the kind cannot be recorded.
	record func(ctx context.Context, s *Scenario) (*trace.Trace, []Result, error)
	// render is the kind's row schema.
	render renderer
}

// kernelSpec is the kernel-only part of a workloadSpec.
type kernelSpec struct {
	// kernel selects the dse.KernelSweepCtx kernel.
	kernel dse.Kernel
	// headline is the Result field holding dse.KernelPoint.Cycles, the
	// metric the kind's Speedup is computed over.
	headline func(r *Result) *int64
	// project fills the kind's remaining metrics from a sweep point.
	project func(r *Result, p dse.KernelPoint)
}

// renderer is one kind's row schema. Table and CSV are block-level (they
// see every row of their kind at once) so a schema can adapt to the axes
// actually swept — the jacobi schema keeps its figure-golden legacy form
// for single-variant sweeps and only then adds a variant column.
type renderer struct {
	// table writes an aligned header + one row per result into w.
	table func(w *tabwriter.Writer, rows []Result)
	// csv writes a CSV header + one line per result into b.
	csv func(b *strings.Builder, rows []Result)
	// json returns the row's full-field JSON projection (every field of
	// the kind always emitted, nothing from other kinds leaking in).
	json func(r Result) any
}

// axis is one named sweep axis and its size.
type axis struct {
	n    int
	name string
}

// section is one of the scenario's per-kind JSON sections.
type section int

const (
	secNoC section = iota
	secTrace
	secService
	secKernel
	numSections
)

// sections names each section as errors quote it and reports whether a
// scenario sets it.
var sections = [numSections]struct {
	name string
	set  func(s *Scenario) bool
}{
	secNoC:     {`"noc"`, func(s *Scenario) bool { return s.NoC != nil }},
	secTrace:   {`"trace"`, func(s *Scenario) bool { return s.Trace != nil }},
	secService: {`"service"`, func(s *Scenario) bool { return s.Service != nil }},
	secKernel:  {`"kernel"/"jacobi"`, func(s *Scenario) bool { return s.kernelConfig() != nil }},
}

// specs is the workload table, indexed by kind. It is filled in init
// because its functions refer back to it (through WorkloadKind.String).
var specs [numWorkloads]workloadSpec

func init() {
	// The three kernels share one section, validation, axis set, runner
	// and recorder; they differ in their metrics and render schemas.
	kernelKind := func(k WorkloadKind, name string, ks kernelSpec, r renderer) workloadSpec {
		return workloadSpec{
			name: name, kernel: &ks, section: secKernel, subject: "kernel workloads",
			validate: validateKernels, axes: kernelAxes, record: recordKernel, render: r,
			run: func(ctx context.Context, s *Scenario, points []int) ([]Result, error) {
				return runKernel(ctx, s, k, points)
			},
		}
	}
	nocRender := renderer{nocTable, nocCSV, projectRow[nocJSON]}
	specs = [numWorkloads]workloadSpec{
		WorkloadJacobi: kernelKind(WorkloadJacobi, "jacobi", kernelSpec{
			kernel:   dse.KernelJacobi,
			headline: func(r *Result) *int64 { return &r.CyclesPerIter },
			project: func(r *Result, p dse.KernelPoint) {
				r.MissRate, r.AreaMM2 = p.MissRate, p.AreaMM2
			},
		}, renderer{jacobiTable, jacobiCSV, projectRow[jacobiJSON]}),
		WorkloadMatmul: kernelKind(WorkloadMatmul, "matmul", kernelSpec{
			kernel:   dse.KernelMatmul,
			headline: func(r *Result) *int64 { return &r.TotalCycles },
			project: func(r *Result, p dse.KernelPoint) {
				r.TransferCycles, r.MPMMUBusy, r.NoCFlits = p.TransferCycles, p.MPMMUBusy, p.NoCFlits
			},
		}, renderer{matmulTable, matmulCSV, projectRow[matmulJSON]}),
		WorkloadSyncbench: kernelKind(WorkloadSyncbench, "syncbench", kernelSpec{
			kernel:   dse.KernelSyncbench,
			headline: func(r *Result) *int64 { return &r.CyclesPerRound },
			project: func(r *Result, p dse.KernelPoint) {
				r.MPMMUBusy, r.NoCFlits = p.MPMMUBusy, p.NoCFlits
			},
		}, renderer{syncbenchTable, syncbenchCSV, projectRow[syncbenchJSON]}),
		WorkloadNoC: {
			name: "noc-synthetic", section: secNoC, subject: "workload noc-synthetic",
			validate: validateNoC, axes: nocAxes, run: runNoC, record: recordNoC,
			render: nocRender,
		},
		// Replayed rows carry the noc-synthetic schema (a same-fabric
		// replay renders byte-identically to its source run); the trace
		// renderer only serves hand-assembled rows that say "trace".
		WorkloadTrace: {
			name: "trace", section: secTrace, subject: "the trace workload",
			misuse: traceMisuse, validate: validateTrace, axes: traceAxes, run: runTrace,
			render: nocRender,
		},
		WorkloadService: {
			name: "service", section: secService, subject: "workload service",
			misuse: serviceMisuse, validate: validateService, axes: serviceAxes, run: runService,
			render: renderer{serviceTable, serviceCSV, projectRow[serviceJSON]},
		},
	}
}

// String implements fmt.Stringer; the names are the scenario JSON and CLI
// vocabulary.
func (k WorkloadKind) String() string {
	if k < 0 || k >= numWorkloads {
		return fmt.Sprintf("workload(%d)", int(k))
	}
	return specs[k].name
}

// IsKernel reports whether the kind is a compute kernel on the full MEDEA
// system (sharing the kernel sweep axes), as opposed to a bare-network
// workload. Only kernel kinds may appear in the "workloads" sweep axis.
func (k WorkloadKind) IsKernel() bool {
	return k >= 0 && k < numWorkloads && specs[k].kernel != nil
}

// AllWorkloads returns every defined workload kind in declaration order.
func AllWorkloads() []WorkloadKind {
	out := make([]WorkloadKind, numWorkloads)
	for i := range out {
		out[i] = WorkloadKind(i)
	}
	return out
}

// WorkloadNames returns the canonical names of every workload kind, for
// flag documentation and error messages.
func WorkloadNames() []string {
	names := make([]string, numWorkloads)
	for i := range names {
		names[i] = WorkloadKind(i).String()
	}
	return names
}

// ParseWorkload resolves a workload kind from its canonical name (as
// printed by WorkloadKind.String) or its numeric value. Matching is
// case-insensitive and accepts "_" for "-", mirroring noc.ParseRouter.
func ParseWorkload(s string) (WorkloadKind, error) {
	norm := strings.ReplaceAll(strings.ToLower(strings.TrimSpace(s)), "_", "-")
	for k := WorkloadKind(0); k < numWorkloads; k++ {
		if norm == k.String() {
			return k, nil
		}
	}
	if n, err := strconv.Atoi(norm); err == nil {
		if n >= 0 && n < int(numWorkloads) {
			return WorkloadKind(n), nil
		}
		return 0, fmt.Errorf("scenario: workload index %d out of range [0, %d)", n, int(numWorkloads))
	}
	return 0, fmt.Errorf("scenario: unknown workload %q (have: %s)", s, strings.Join(WorkloadNames(), ", "))
}
