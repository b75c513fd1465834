// Package scenario provides a declarative JSON experiment format and a
// parallel batch runner for the MEDEA simulator.
//
// A scenario file names its workload (or, for the compute kernels, a
// "workloads" list), the one JSON section that kind owns and its sweep
// axes; Run executes the cross-product of the axes on a worker pool and
// returns one Result per point, renderable as a table, CSV or JSON. The
// six workload kinds are:
//
//   - jacobi, matmul and syncbench — compute kernels on the full MEDEA
//     system ("kernel" section): variants x policies x caches x cores,
//     executed through dse.KernelSweepCtx, the path shared with the
//     hand-coded figure experiments;
//   - noc-synthetic — generated traffic on the bare network ("noc"):
//     topologies x routers x patterns x rates x seeds (x measure
//     windows), executed through noc.MeasureCtx;
//   - trace — a recorded trace replayed through topologies x routers
//     ("trace"), executed through noc.MeasureReplayCtx;
//   - service — request/response traffic ("service"): topologies x
//     routers x arrival rates x seeds, executed through
//     noc.MeasureServiceCtx.
//
// Everything the package knows about a kind lives in one entry of the
// spec table in workload.go: its name, the section it owns and how that
// section is validated, its ordered sweep axes (from which NumPoints and
// Summary both derive), its runner, its recorder and its row schema.
// Validation, running, sharding, recording and rendering all read that
// table, so a new kind is a constant plus one table entry. Every name is
// resolved through a registry (ParseWorkload here; noc.ParsePattern,
// noc.ParseRouter and noc.ParseTopology for the network axes), and the
// golden tests (fig8-quick, router-ablation, topology-ablation,
// kernel-ablation) hold the declarative path byte- and point-exact
// against the hand-coded experiments. See examples/scenarios/ for
// ready-to-run files, REPRODUCING.md for the figure/table map, and
// cmd/medea-scenarios for the CLI driver.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/noc"
	"repro/internal/resultcache"
)

// Output format names for Scenario.Output and the CLI -format flag.
const (
	FormatTable = "table"
	FormatCSV   = "csv"
	FormatJSON  = "json"
)

// Scenario is the top-level declarative experiment description.
type Scenario struct {
	// Name identifies the scenario in result rows; Load defaults it to
	// the file's base name.
	Name string `json:"name,omitempty"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`
	// Workload selects what each point simulates (see WorkloadNames):
	// "jacobi", "matmul" and "syncbench" (compute kernels),
	// "noc-synthetic", "trace" or "service". Mutually exclusive with
	// Workloads.
	Workload string `json:"workload,omitempty"`
	// Workloads sweeps the workload axis itself: a list of kernel
	// workloads (jacobi, matmul, syncbench) that all run the same kernel
	// sweep, one block per workload. The bare-network workloads have
	// disjoint axes and cannot be mixed in.
	Workloads []string `json:"workloads,omitempty"`

	// NoC configures the noc-synthetic workload (required for it).
	NoC *NoCConfig `json:"noc,omitempty"`
	// Trace configures the trace workload (required for it): the recorded
	// trace file to replay and the replay sweep axes.
	Trace *TraceConfig `json:"trace,omitempty"`
	// Service configures the service workload (required for it).
	Service *ServiceConfig `json:"service,omitempty"`
	// Kernel configures the kernel workloads (required for them).
	Kernel *KernelConfig `json:"kernel,omitempty"`
	// Jacobi is the pre-workload-axis alias for Kernel, kept so existing
	// jacobi scenarios load unchanged; it requires jacobi among the
	// workloads. Set one of Kernel or Jacobi, not both.
	Jacobi *KernelConfig `json:"jacobi,omitempty"`

	// Seeds lists explicit RNG seeds; each seed is one replication of
	// every (pattern, rate) point. Mutually exclusive with Replications.
	Seeds []int64 `json:"seeds,omitempty"`
	// Replications runs seeds BaseSeed, BaseSeed+1, ... instead of an
	// explicit list. Defaults to 1.
	Replications int `json:"replications,omitempty"`
	// BaseSeed is the first seed when Replications is used. Defaults to 1.
	BaseSeed int64 `json:"base_seed,omitempty"`

	// Parallelism bounds concurrent simulations; 0 means GOMAXPROCS.
	Parallelism int `json:"parallelism,omitempty"`
	// Output is the default rendering: "table" (default), "csv" or "json".
	Output string `json:"output,omitempty"`

	// Shard, when present, asks the driver to partition the sweep across
	// worker processes (see internal/shard). It carries counts only — how
	// the workers are launched is the driver's business (and deliberately
	// not part of the format: a scenario file must never name a command to
	// exec). Merged results are byte-identical to a single-process run.
	Shard *ShardConfig `json:"shard,omitempty"`

	// Cache, when non-nil, content-addresses every point's simulation
	// result (see resultcache): repeated points are served from the store
	// and concurrent duplicates collapse to one run. It is runtime state,
	// not part of the declarative format — callers (cmd/medea-scenarios,
	// internal/serve) attach it after Load. nil means cache off; rendered
	// output is byte-identical either way.
	Cache *resultcache.Cache `json:"-"`

	// Record, when non-nil, receives every flit-level injection of the
	// run (trace capture; see RecordCtx, which is how callers should
	// record). Runtime state like Cache. Recording bypasses the result
	// cache: a cache hit skips the simulation and would record nothing.
	Record noc.InjectionRecorder `json:"-"`
}

// fabric is the network part the noc-synthetic and service sections
// share. It is embedded, so its keys sit flat inside "noc" and "service".
type fabric struct {
	// Width and Height size the endpoint grid (both >= 2; the torus and
	// mesh put one switch under every endpoint, the cmesh needs both even
	// and >= 4 and folds each 2x2 endpoint tile onto one switch).
	Width  int `json:"width"`
	Height int `json:"height"`
	// Topologies lists fabrics by name (see noc.TopologyNames); one sweep
	// axis. Empty means the paper's folded torus only.
	Topologies []string `json:"topologies,omitempty"`
	// Routers lists router algorithms by name (see noc.RouterNames); one
	// sweep axis. Empty means the paper's deflection router only.
	Routers []string `json:"routers,omitempty"`
}

// build resolves the fabric axes of section sec (for error messages),
// building every listed topology at the grid size.
func (f *fabric) build(sec string) ([]noc.Topology, []noc.RouterKind, error) {
	kinds, err := parseAxis(sec+".topologies", f.Topologies, noc.ParseTopology, noc.TopoTorus)
	if err != nil {
		return nil, nil, err
	}
	topos := make([]noc.Topology, len(kinds))
	for i, k := range kinds {
		if topos[i], err = noc.NewTopologyOfKind(k, f.Width, f.Height); err != nil {
			return nil, nil, fmt.Errorf("%q: %w", sec, err)
		}
	}
	routers, err := parseAxis(sec+".routers", f.Routers, noc.ParseRouter, noc.RouterDeflection)
	if err != nil {
		return nil, nil, err
	}
	return topos, routers, nil
}

// axes returns the fabric's topology x router axes.
func (f *fabric) axes() []axis {
	return []axis{{max(1, len(f.Topologies)), "topologies"}, {max(1, len(f.Routers)), "routers"}}
}

// BurstConfig mirrors noc.BurstConfig in the JSON schema.
type BurstConfig struct {
	MeanOn  float64 `json:"mean_on"`
	MeanOff float64 `json:"mean_off"`
}

// noc converts the section to the simulator's form (nil stays nil).
func (b *BurstConfig) noc() *noc.BurstConfig {
	if b == nil {
		return nil
	}
	return &noc.BurstConfig{MeanOn: b.MeanOn, MeanOff: b.MeanOff}
}

// parseAxis resolves one named sweep axis: every name through parse, no
// value listed twice, and def when the list is empty. Errors are prefixed
// with the axis's JSON path.
func parseAxis[T comparable](field string, names []string, parse func(string) (T, error), def ...T) ([]T, error) {
	if len(names) == 0 {
		return def, nil
	}
	out := make([]T, 0, len(names))
	for _, name := range names {
		v, err := parse(name)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", field, err)
		}
		if slices.Contains(out, v) {
			return nil, fmt.Errorf("%q: %v listed twice", field, v)
		}
		out = append(out, v)
	}
	return out, nil
}

// Load reads, parses and validates a scenario file. An empty Name is
// defaulted from the file's base name, and a relative trace path is
// resolved against the file's directory — before validation, which loads
// the trace. The resolved path also makes the scenario portable through
// the shard transport (workers may run in a different directory).
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := decode(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	if s.Name == "" {
		s.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	if s.Trace != nil && s.Trace.File != "" && !filepath.IsAbs(s.Trace.File) {
		s.Trace.File = filepath.Join(filepath.Dir(path), s.Trace.File)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}

// Parse decodes and validates a scenario from JSON bytes. Unknown fields
// are rejected so typos fail loudly instead of silently running defaults.
// A relative trace path resolves against the process working directory;
// use Load to resolve it against the scenario file instead.
func Parse(data []byte) (*Scenario, error) {
	s, err := decode(data)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// decode parses the JSON without validating, so Load can resolve paths
// first.
func decode(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("parsing: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("parsing: trailing data after the scenario object")
	}
	return &s, nil
}

// workloadKinds resolves the workload axis: the single Workload, or the
// Workloads list (kernel workloads only, no duplicates).
func (s *Scenario) workloadKinds() ([]WorkloadKind, error) {
	if s.Workload != "" && len(s.Workloads) > 0 {
		return nil, fmt.Errorf(`set either "workload" or "workloads", not both`)
	}
	if s.Workload != "" {
		k, err := ParseWorkload(s.Workload)
		if err != nil {
			return nil, err
		}
		return []WorkloadKind{k}, nil
	}
	if len(s.Workloads) == 0 {
		return nil, fmt.Errorf(`missing "workload": set one of %s (or a "workloads" list of kernel workloads)`,
			strings.Join(WorkloadNames(), ", "))
	}
	kinds, err := parseAxis("workloads", s.Workloads, ParseWorkload)
	if err != nil {
		return nil, err
	}
	for _, k := range kinds {
		if !k.IsKernel() {
			return nil, fmt.Errorf(`"workloads" sweeps the kernel workloads (%s); run %v through "workload"`,
				strings.Join(kernelWorkloadNames(), ", "), k)
		}
	}
	return kinds, nil
}

// kernelWorkloadNames lists the kernel subset of WorkloadNames.
func kernelWorkloadNames() []string {
	var names []string
	for _, k := range AllWorkloads() {
		if k.IsKernel() {
			names = append(names, k.String())
		}
	}
	return names
}

// Validate checks the scenario for consistency and fills no defaults (the
// runner applies defaults at execution time, so a validated scenario
// round-trips through JSON unchanged).
func (s *Scenario) Validate() error {
	kinds, err := s.workloadKinds()
	if err != nil {
		return err
	}
	switch s.Output {
	case "", FormatTable, FormatCSV, FormatJSON:
	default:
		return fmt.Errorf("unknown output format %q (have: %s, %s, %s)",
			s.Output, FormatTable, FormatCSV, FormatJSON)
	}
	if len(s.Seeds) > 0 && s.Replications > 0 {
		return fmt.Errorf(`set either "seeds" or "replications", not both`)
	}
	if s.Replications < 0 {
		return fmt.Errorf("replications must be >= 0, got %d", s.Replications)
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("parallelism must be >= 0, got %d", s.Parallelism)
	}
	if s.Shard != nil {
		if err := s.Shard.validate(); err != nil {
			return err
		}
	}
	spec := &specs[kinds[0]]
	for sec := range numSections {
		if sec == spec.section || !sections[sec].set(s) {
			continue
		}
		if spec.misuse != nil {
			if err := spec.misuse(s, sec); err != nil {
				return err
			}
		}
		return fmt.Errorf(`the %s section has no effect on %s; remove it`, sections[sec].name, spec.subject)
	}
	return spec.validate(s, kinds)
}

// seeded reports whether any seed option is set, for the deterministic
// workloads that reject them.
func (s *Scenario) seeded() bool {
	return len(s.Seeds) > 0 || s.Replications > 1 || s.BaseSeed != 0
}

// seedList resolves the seed axis: explicit Seeds, or Replications seeds
// counting up from BaseSeed (default one seed, 1).
func (s *Scenario) seedList() []int64 {
	if len(s.Seeds) > 0 {
		return s.Seeds
	}
	base := s.BaseSeed
	if base == 0 {
		base = 1
	}
	n := s.Replications
	if n == 0 {
		n = 1
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = base + int64(i)
	}
	return seeds
}

// NumPoints returns the size of the sweep cross-product.
func (s *Scenario) NumPoints() int {
	kinds, err := s.workloadKinds()
	if err != nil {
		return 0
	}
	n := 0
	for _, k := range kinds {
		n += s.kindPoints(k)
	}
	return n
}

// kindPoints returns the number of sweep points one workload kind
// contributes: the product of its axis sizes.
func (s *Scenario) kindPoints(k WorkloadKind) int {
	n := 1
	for _, a := range specs[k].axes(s) {
		n *= a.n
	}
	return n
}
