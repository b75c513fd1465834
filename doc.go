// Package medea is the root of a from-scratch Go reproduction of
// "MEDEA: a Hybrid Shared-memory/Message-passing Multiprocessor NoC-based
// Architecture" (Tota, Casu, Ruo Roch, Rostagno, Zamboni — DATE 2010).
//
// The simulator, workloads and design-space exploration live under
// internal/ (see DESIGN.md for the system inventory and experiment
// index, README.md for the quickstart, and REPRODUCING.md for the
// figure/table-to-command map with expected golden values); runnable
// entry points are in cmd/ and examples/; bench_test.go regenerates
// every table and figure of the paper's evaluation. Arbitrary experiment
// sweeps are described declaratively as JSON scenario files
// (internal/scenario, cmd/medea-scenarios, examples/scenarios/) rather
// than by writing new driver code, across four pluggable axes: workload
// (jacobi, matmul, syncbench, noc-synthetic) x programming-model variant
// x network topology x router.
//
// # Performance
//
// Every figure in the evaluation is regenerated by running the
// cycle-accurate engine for millions of Ticks per configuration (168
// configurations for the full Fig 6 sweep), so per-cycle overhead
// multiplies across the whole benchmark suite. The hot path is organized
// around four ideas:
//
//   - Two-phase tick with dirty-register commit (internal/sim): each cycle
//     runs all components in phase order (nodes, then switches) and then
//     commits only the registers written during the cycle. Set enqueues
//     the register's index on a per-cycle dirty list (a pointer-free int32
//     slice resolved through a table of pre-bound commit functions — no
//     interface dispatch, no GC write barriers); registers that were valid
//     but not rewritten expire lazily through a validity stamp compared
//     against the engine clock, so idle links cost nothing. The
//     determinism contract — identical cycle counts for identical
//     configurations — is unchanged and locked in by
//     internal/jacobi.TestDeterminismGolden.
//
//   - Activity-driven switch phase (internal/noc): one component steps a
//     network's switches, and only those with work in the cycle — a flit
//     arriving (link registers stamp their consumer's wake slot on
//     commit), a flit pending at the local port, buffered flits or a
//     returned credit. A 2-core MEDEA system carries a flit through a few
//     of its 16 switches per cycle, so most switch steps disappear; a
//     sleeping switch catches up its per-cycle state through the
//     fast-forward Skipper contract before it next steps.
//
//   - Ring-buffer FIFOs (internal/queue): every hardware queue (TIE ports,
//     bridge output, MPMMU request/data queues, arbiter FIFOs, traffic
//     sources) is a head/tail ring with amortized O(1) push and pop, so
//     the per-cycle drains stay constant-time at any occupancy.
//
//   - Allocation-free accessors (internal/cache, internal/memory): the
//     read/write paths used every cycle (ReadUint, ReadWord, ReadInto,
//     VictimInto, FlushLineInto, DDR.ReadInto) copy into caller-owned or
//     component-scratch buffers instead of allocating; the allocating
//     forms remain as thin wrappers for cold paths and tests.
//
// Micro-benchmarks cover each layer: BenchmarkTick (internal/noc, the
// per-cycle engine cost on the paper's 4x4 mesh at several loads, and per
// router kind with traffic on only 3 of the 16 switches),
// BenchmarkFIFOPushPop (internal/queue) and BenchmarkCacheAccess
// (internal/cache, which must report 0 allocs/op on reads). Run them with
//
//	go test ./internal/... -bench . -run '^$' -benchmem
//
// and the end-to-end figure benchmarks with
//
//	go test -bench 'BenchmarkFig' -run '^$' -benchtime 1x -benchmem
//
// To profile the full experiment driver without editing code:
//
//	go run ./cmd/medea-experiments -fig 8 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
package medea
