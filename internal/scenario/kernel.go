package scenario

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/cache"
	"repro/internal/dse"
	"repro/internal/jacobi"
	"repro/internal/noc"
	"repro/internal/tie"
	"repro/internal/trace"
)

// KernelConfig describes a design-space sweep of the kernel workloads
// (jacobi, matmul, syncbench) on the full MEDEA system. The axes are
// shared: one section drives every kernel listed in "workloads".
type KernelConfig struct {
	// N is the problem size: the grid edge for jacobi (the paper uses 16,
	// 30 and 60), the matrix edge for matmul (2..64). A syncbench-only
	// scenario has no problem size.
	N int `json:"n"`
	// Variant selects one programming model: "hybrid-full" (default),
	// "hybrid-sync" or "pure-sm". Mutually exclusive with Variants.
	Variant string `json:"variant,omitempty"`
	// Variants sweeps the programming-model axis (the paper's core
	// message-passing vs shared-memory comparison). Syncbench measures
	// the barrier itself, so it supports hybrid-full (message barrier)
	// and pure-sm (lock barrier) but not hybrid-sync.
	Variants []string `json:"variants,omitempty"`
	// Cores lists compute-core counts; one sweep axis.
	Cores []int `json:"cores"`
	// CacheKB lists L1 sizes in kB; one sweep axis.
	CacheKB []int `json:"cache_kb"`
	// Policies lists write policies ("write-back"/"wb",
	// "write-through"/"wt"); one sweep axis. Defaults to write-back.
	Policies []string `json:"policies,omitempty"`
	// Rounds is the number of synchronization episodes syncbench averages
	// over (default 20); only meaningful when syncbench is swept.
	Rounds int `json:"rounds,omitempty"`
	// Warmup and Measured are Jacobi iteration counts (default 1 each);
	// only meaningful when jacobi is swept.
	Warmup   int `json:"warmup,omitempty"`
	Measured int `json:"measured,omitempty"`
}

// kernelConfig returns the scenario's kernel section (the canonical
// Kernel field or its Jacobi alias); nil when neither is set. Validate
// rejects setting both.
func (s *Scenario) kernelConfig() *KernelConfig {
	if s.Kernel != nil {
		return s.Kernel
	}
	return s.Jacobi
}

// validateKernels checks the kernel section against the kernels swept.
func validateKernels(s *Scenario, kinds []WorkloadKind) error {
	if s.Kernel != nil && s.Jacobi != nil {
		return fmt.Errorf(`set either "kernel" or its "jacobi" alias, not both`)
	}
	if s.Jacobi != nil && !slices.Contains(kinds, WorkloadJacobi) {
		return fmt.Errorf(`the "jacobi" section is the kernel section's legacy alias; sweeps without the jacobi workload use "kernel"`)
	}
	cfg := s.kernelConfig()
	if cfg == nil {
		if kinds[0] == WorkloadJacobi && len(kinds) == 1 {
			return fmt.Errorf(`workload %v needs a "jacobi" section (canonical name: "kernel")`, WorkloadJacobi)
		}
		return fmt.Errorf(`every kernel workload needs a "kernel" section`)
	}
	if s.seeded() {
		return fmt.Errorf("kernel workloads are fully deterministic: seeds/replications/base_seed have no effect; remove them")
	}
	return cfg.validate(kinds)
}

func (c *KernelConfig) validate(kinds []WorkloadKind) error {
	hasJacobi := slices.Contains(kinds, WorkloadJacobi)
	hasMatmul := slices.Contains(kinds, WorkloadMatmul)
	hasSync := slices.Contains(kinds, WorkloadSyncbench)

	if hasJacobi && c.N < 3 {
		return fmt.Errorf(`"kernel.n" must be >= 3 for jacobi (the paper uses 16, 30 and 60), got %d`, c.N)
	}
	if hasMatmul && (c.N < 2 || c.N > 64) {
		return fmt.Errorf(`"kernel.n" must be in 2..64 for matmul, got %d`, c.N)
	}
	if !hasJacobi && !hasMatmul && c.N != 0 {
		return fmt.Errorf(`"kernel.n" has no effect on the syncbench workload; remove it`)
	}
	variants, err := c.variantList()
	if err != nil {
		return err
	}
	if hasSync {
		for _, v := range variants {
			if v == jacobi.HybridSync {
				return fmt.Errorf(`"kernel.variants": the syncbench workload has no %v variant (it measures the barrier itself; use %v or %v)`,
					jacobi.HybridSync, jacobi.HybridFull, jacobi.PureSM)
			}
		}
	}
	if len(c.Cores) == 0 {
		return fmt.Errorf(`"kernel.cores" must list at least one compute-core count`)
	}
	for _, n := range c.Cores {
		if n < 2 || n > 15 {
			return fmt.Errorf(`"kernel.cores": %d outside the architecture's 2..15 range`, n)
		}
	}
	if len(c.CacheKB) == 0 {
		return fmt.Errorf(`"kernel.cache_kb" must list at least one L1 size in kB`)
	}
	for _, kb := range c.CacheKB {
		if kb <= 0 {
			return fmt.Errorf(`"kernel.cache_kb": %d must be positive`, kb)
		}
	}
	if _, err := c.policyList(); err != nil {
		return err
	}
	if c.Rounds < 0 {
		return fmt.Errorf(`"kernel.rounds" must be >= 0, got %d`, c.Rounds)
	}
	if c.Rounds > 0 && !hasSync {
		return fmt.Errorf(`"kernel.rounds" only affects the syncbench workload; remove it`)
	}
	if c.Warmup < 0 || c.Measured < 0 {
		return fmt.Errorf(`"kernel.warmup"/"kernel.measured" must be >= 0`)
	}
	if (c.Warmup > 0 || c.Measured > 0) && !hasJacobi {
		return fmt.Errorf(`"kernel.warmup"/"kernel.measured" only affect the jacobi workload; remove them`)
	}
	return nil
}

// variantList resolves the variant axis: the Variants list, or the single
// Variant (default hybrid-full).
func (c *KernelConfig) variantList() ([]jacobi.Variant, error) {
	if len(c.Variants) == 0 {
		v, err := parseVariant(c.Variant)
		if err != nil {
			return nil, fmt.Errorf(`"kernel.variant": %w`, err)
		}
		return []jacobi.Variant{v}, nil
	}
	if c.Variant != "" {
		return nil, fmt.Errorf(`set either "kernel.variant" or "kernel.variants", not both`)
	}
	return parseAxis("kernel.variants", c.Variants, parseVariant)
}

// policyList resolves the write-policy axis (empty means the sweep's
// write-back default).
func (c *KernelConfig) policyList() ([]cache.Policy, error) {
	policies := make([]cache.Policy, 0, len(c.Policies))
	for _, ps := range c.Policies {
		p, err := parsePolicy(ps)
		if err != nil {
			return nil, fmt.Errorf(`"kernel.policies": %w`, err)
		}
		policies = append(policies, p)
	}
	return policies, nil
}

// kernelAxes is the kernel sweep: variants x cores x caches x policies.
func kernelAxes(s *Scenario) []axis {
	c := s.kernelConfig()
	return []axis{
		{max(1, len(c.Variants)), "variants"}, {len(c.Cores), "cores"},
		{len(c.CacheKB), "caches"}, {max(1, len(c.Policies)), "policies"},
	}
}

// runKernel resolves the scenario's kernel section into dse.KernelOptions
// and delegates to dse.KernelSweepCtx, the execution path shared with
// dse.KernelAblationCtx and cmd/medea-experiments (the golden tests depend
// on this). A non-nil points filter makes dse.KernelSweepCtx skip the
// cross-point Speedup attach; MergeShards reapplies it over reassembled
// series.
func runKernel(ctx context.Context, s *Scenario, k WorkloadKind, points []int) ([]Result, error) {
	spec := &specs[k]
	c := s.kernelConfig()
	variants, err := c.variantList()
	if err != nil {
		return nil, err
	}
	policies, err := c.policyList()
	if err != nil {
		return nil, err
	}
	pts, err := dse.KernelSweepCtx(ctx, dse.KernelOptions{
		Kernel:      spec.kernel.kernel,
		N:           c.N,
		Rounds:      c.Rounds,
		Cores:       c.Cores,
		CachesKB:    c.CacheKB,
		Policies:    policies,
		Variants:    variants,
		Warmup:      c.Warmup,
		Measured:    c.Measured,
		Parallelism: s.Parallelism,
		Cache:       s.Cache,
		Points:      points,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	results := make([]Result, len(pts))
	for i, p := range pts {
		r := Result{
			Scenario: s.Name,
			Workload: spec.name,
			Variant:  p.Variant.String(),
			Cores:    p.Compute,
			CacheKB:  p.CacheKB,
			Policy:   p.Policy.String(),
			Speedup:  p.Speedup,
		}
		*spec.kernel.headline(&r) = p.Cycles
		spec.kernel.project(&r, p)
		results[i] = r
	}
	return results, nil
}

// parseVariant resolves a programming-model variant, defaulting the empty
// string to the paper's headline hybrid-full model.
func parseVariant(s string) (jacobi.Variant, error) {
	if strings.TrimSpace(s) == "" {
		return jacobi.HybridFull, nil
	}
	return jacobi.ParseVariant(s)
}

func parsePolicy(s string) (cache.Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "wb", "write-back", "writeback":
		return cache.WriteBack, nil
	case "wt", "write-through", "writethrough":
		return cache.WriteThrough, nil
	}
	return 0, fmt.Errorf("unknown cache policy %q (have: write-back/wb, write-through/wt)", s)
}

// recordKernel captures one kernel point's eMPI message sends. Kernel
// rigs run on the architecture's fixed 4x4 folded torus (core.Config
// defaults), and the horizon is only known once the run finishes, so the
// header's measure window is stamped afterwards. Message events replay as
// single request-class flits carrying the packet's word count — a
// deterministic communication skeleton, not a flit-exact reproduction
// like noc recordings.
func recordKernel(ctx context.Context, s *Scenario) (*trace.Trace, []Result, error) {
	if n := s.NumPoints(); n != 1 {
		return nil, nil, fmt.Errorf("scenario: recording needs a single-point scenario (one variant, cores and cache size), got %d points", n)
	}
	t := trace.New(trace.Header{
		Width: 4, Height: 4,
		Topology: noc.TopoTorus.String(),
		Router:   noc.RouterDeflection.String(),
		Pattern:  s.Workload,
		Measure:  1,
	})
	prev := tie.SetSendRecorder(t)
	defer tie.SetSendRecorder(prev)
	run := *s
	run.Cache = nil
	run.Shard = nil
	results, err := RunCtx(ctx, &run)
	if err != nil {
		return nil, nil, err
	}
	if n := len(t.Events); n > 0 {
		t.Header.Measure = t.Events[n-1].Cycle + 1
	}
	return t, results, nil
}
