package pe_test

import (
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/pe"
	"repro/internal/tie"
)

func buildSys(tb testing.TB, cores int, policy cache.Policy) *core.System {
	tb.Helper()
	sys, err := core.Build(core.DefaultConfig(cores, 8, policy))
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// opLoops are 2-core programs that repeat one kind of operation n times.
// Rank 1 idles unless the operation needs a partner.
var opLoops = []struct {
	name   string
	policy cache.Policy
	progs  func(sys *core.System, n int) []pe.Program
}{
	{"cached hit", cache.WriteBack, func(sys *core.System, n int) []pe.Program {
		addr := sys.Map.PrivateAddr(0, 0)
		return []pe.Program{func(env *pe.Env) {
			for i := 0; i < n; i++ {
				env.LoadWord(addr)
			}
		}, idle}
	}},
	{"miss with dirty victim", cache.WriteBack, func(sys *core.System, n int) []pe.Program {
		// Two lines one cache size apart share a direct-mapped set, so
		// every store misses and evicts the other, dirty, line.
		a, b := sys.Map.PrivateAddr(0, 0), sys.Map.PrivateAddr(0, 8<<10)
		return []pe.Program{func(env *pe.Env) {
			for i := 0; i < n; i++ {
				env.StoreWord(a, uint32(i))
				a, b = b, a
			}
		}, idle}
	}},
	{"uncached 8-byte load", cache.WriteBack, func(sys *core.System, n int) []pe.Program {
		addr := sys.Map.SharedAddr(0)
		return []pe.Program{func(env *pe.Env) {
			for i := 0; i < n; i++ {
				env.LoadDoubleUncached(addr)
			}
		}, idle}
	}},
	{"uncached 8-byte store", cache.WriteBack, func(sys *core.System, n int) []pe.Program {
		addr := sys.Map.SharedAddr(0)
		return []pe.Program{func(env *pe.Env) {
			for i := 0; i < n; i++ {
				env.StoreDoubleUncached(addr, float64(i))
			}
		}, idle}
	}},
	{"write-through store hit", cache.WriteThrough, func(sys *core.System, n int) []pe.Program {
		addr := sys.Map.PrivateAddr(0, 0)
		return []pe.Program{func(env *pe.Env) {
			env.LoadWord(addr)
			for i := 0; i < n; i++ {
				env.StoreWord(addr, uint32(i))
			}
		}, idle}
	}},
	{"flush", cache.WriteBack, func(sys *core.System, n int) []pe.Program {
		addr := sys.Map.PrivateAddr(0, 0)
		return []pe.Program{func(env *pe.Env) {
			for i := 0; i < n; i++ {
				env.StoreWord(addr, uint32(i))
				env.FlushLine(addr)
			}
		}, idle}
	}},
	{"lock/unlock", cache.WriteBack, func(sys *core.System, n int) []pe.Program {
		addr := sys.Map.SharedAddr(64)
		return []pe.Program{func(env *pe.Env) {
			for i := 0; i < n; i++ {
				env.Lock(addr)
				env.Unlock(addr)
			}
		}, idle}
	}},
	{"send/recv", cache.WriteBack, pingPong},
}

func idle(*pe.Env) {}

// pingPong bounces a 4-word message between ranks 0 and 1 n times.
func pingPong(sys *core.System, n int) []pe.Program {
	n0, n1 := sys.NodeOf(0), sys.NodeOf(1)
	return []pe.Program{func(env *pe.Env) {
		words := []uint32{1, 2, 3, 4}
		for i := 0; i < n; i++ {
			env.Send(n1, tie.Data, words)
			env.Recv(n1, tie.Data)
		}
	}, func(env *pe.Env) {
		for i := 0; i < n; i++ {
			pkt := env.Recv(n0, tie.Data)
			env.Send(n0, tie.Data, pkt.Words[:4])
		}
	}}
}

// mallocs runs the programs on sys and returns the heap allocations made
// from launch to the end of the run and the operations the cores executed.
func mallocs(tb testing.TB, sys *core.System, progs []pe.Program) (allocs, ops float64) {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys.Launch(progs)
	if err := sys.Run(1 << 40); err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	for _, p := range sys.Procs {
		ops += float64(p.Stats.Ops.Value())
	}
	return float64(after.Mallocs - before.Mallocs), ops
}

// TestZeroAllocPerOp pins the allocation-free transaction path: running
// an operation 2n times instead of n must cost no extra heap allocations,
// only the fixed cost of launching a program. Received payloads are
// carved from a shared slab, hence "almost" zero for send/recv.
func TestZeroAllocPerOp(t *testing.T) {
	const n = 500
	for _, c := range opLoops {
		t.Run(c.name, func(t *testing.T) {
			one, two := buildSys(t, 2, c.policy), buildSys(t, 2, c.policy)
			a, opsA := mallocs(t, one, c.progs(one, n))
			b, opsB := mallocs(t, two, c.progs(two, 2*n))
			if perOp := (b - a) / (opsB - opsA); perOp > 0.02 {
				t.Errorf("%.4f allocations per extra op (%.0f for %.0f ops, %.0f for %.0f)",
					perOp, a, opsA, b, opsB)
			}
		})
	}
}

// BenchmarkPEOp measures the cost of handing one operation from a program
// to its core and back, including the simulated cycles the operation
// spends in the core.
func BenchmarkPEOp(b *testing.B) {
	for _, c := range []struct {
		name  string
		cores int
		progs func(sys *core.System, n int) []pe.Program
	}{
		{"compute", 1, func(sys *core.System, n int) []pe.Program {
			return []pe.Program{func(env *pe.Env) {
				for i := 0; i < n; i++ {
					env.Compute(1)
				}
			}}
		}},
		{"cached hit", 1, func(sys *core.System, n int) []pe.Program {
			addr := sys.Map.PrivateAddr(0, 0)
			return []pe.Program{func(env *pe.Env) {
				for i := 0; i < n; i++ {
					env.LoadWord(addr)
				}
			}}
		}},
		{"send/recv", 2, pingPong},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			sys := buildSys(b, c.cores, cache.WriteBack)
			b.ResetTimer()
			sys.Launch(c.progs(sys, b.N))
			if err := sys.Run(1 << 40); err != nil {
				b.Fatal(err)
			}
		})
	}
}
