package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/pe"
	"repro/internal/sim"
	"repro/internal/tie"
)

// waitGoroutines fails the test unless the goroutine count falls back to
// want within a few seconds (an exiting goroutine may need a moment to be
// reaped after it has signalled completion).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d, want %d (program leaked)", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

var errBoom = errors.New("boom")

// spin computes forever; only an abort ends it.
func spin(env *pe.Env) {
	for {
		env.Compute(10)
	}
}

// TestAbortLeaksNothing drives every way a run can be abandoned and checks
// that RunCtx returns the right error and leaves no program behind.
func TestAbortLeaksNothing(t *testing.T) {
	type rig struct {
		ctx    context.Context
		budget int64
		progs  []pe.Program
		check  func(t *testing.T, err error)
	}
	cases := []struct {
		name string
		rig  func(sys *System) rig
	}{
		{"context canceled mid-run", func(sys *System) rig {
			ctx, cancel := context.WithCancel(context.Background())
			return rig{ctx: ctx, budget: 1 << 40,
				progs: []pe.Program{
					func(env *pe.Env) {
						for i := 0; ; i++ {
							env.Compute(10)
							if i == 1000 {
								cancel()
							}
						}
					},
					spin,
				},
				check: func(t *testing.T, err error) {
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("err = %v, want context.Canceled", err)
					}
				}}
		}},
		{"cycle budget exhausted", func(sys *System) rig {
			return rig{ctx: context.Background(), budget: 20_000,
				progs: []pe.Program{spin, spin},
				check: func(t *testing.T, err error) {
					if !errors.Is(err, sim.ErrTimeout) {
						t.Fatalf("err = %v, want sim.ErrTimeout", err)
					}
				}}
		}},
		{"Env.Fail on one rank", func(sys *System) rig {
			return rig{ctx: context.Background(), budget: 1 << 40,
				progs: []pe.Program{
					func(env *pe.Env) {
						env.Recv(sys.NodeOf(1), tie.Data) // never satisfied
					},
					func(env *pe.Env) {
						env.Compute(100)
						env.Fail(errBoom)
					},
				},
				check: func(t *testing.T, err error) {
					if !errors.Is(err, errBoom) || !strings.Contains(err.Error(), "core: rank 1") {
						t.Fatalf("err = %v, want rank 1 wrapping errBoom", err)
					}
				}}
		}},
		{"panicking program", func(sys *System) rig {
			return rig{ctx: context.Background(), budget: 1 << 40,
				progs: []pe.Program{
					spin,
					func(env *pe.Env) {
						env.Compute(100)
						panic("kernel bug")
					},
				},
				check: func(t *testing.T, err error) {
					msg := fmt.Sprint(err)
					if !strings.Contains(msg, "core: rank 1") || !strings.Contains(msg, "panicked: kernel bug") {
						t.Fatalf("err = %v, want rank 1 panic", err)
					}
				}}
		}},
		{"program recovers the abort", func(sys *System) rig {
			resumed := false
			return rig{ctx: context.Background(), budget: 20_000,
				progs: []pe.Program{
					spin,
					func(env *pe.Env) {
						func() {
							defer func() { _ = recover() }()
							spin(env)
						}()
						// Ops after a recovered abort must unwind again.
						env.Compute(1)
						env.LoadWord(0)
						resumed = true
					},
				},
				check: func(t *testing.T, err error) {
					if !errors.Is(err, sim.ErrTimeout) {
						t.Fatalf("err = %v, want sim.ErrTimeout", err)
					}
					if resumed {
						t.Fatal("ops after a recovered abort returned normally")
					}
				}}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys := build(t, 2, 8, cache.WriteBack)
			before := runtime.NumGoroutine()
			r := c.rig(sys)
			sys.Launch(r.progs)
			r.check(t, sys.RunCtx(r.ctx, r.budget))
			for _, p := range sys.Procs {
				if !p.Halted() {
					t.Errorf("rank %d not halted after the run", p.Rank)
				}
			}
			waitGoroutines(t, before)
		})
	}
}

// TestMisuseIsAProgramError checks that misusing the Env API fails the
// offending program with a rank-tagged error, instead of panicking in the
// simulator and leaking every program.
func TestMisuseIsAProgramError(t *testing.T) {
	cases := []struct {
		name string
		prog func(sys *System) pe.Program
		want string
	}{
		{"empty send", func(sys *System) pe.Program {
			return func(env *pe.Env) { env.Send(sys.NodeOf(1), tie.Req, nil) }
		}, "Send of 0 words"},
		{"oversized send", func(sys *System) pe.Program {
			return func(env *pe.Env) { env.Send(sys.NodeOf(1), tie.Data, make([]uint32, 17)) }
		}, "Send of 17 words"},
		{"unaligned load", func(sys *System) pe.Program {
			return func(env *pe.Env) { env.LoadWord(sys.Map.PrivateAddr(0, 2)) }
		}, "unaligned 4-byte access"},
		{"unaligned store", func(sys *System) pe.Program {
			return func(env *pe.Env) { env.StoreDouble(sys.Map.PrivateAddr(0, 4), 1) }
		}, "unaligned 8-byte access"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys := build(t, 2, 8, cache.WriteBack)
			before := runtime.NumGoroutine()
			sys.Launch([]pe.Program{c.prog(sys), func(env *pe.Env) {
				env.Recv(sys.NodeOf(0), tie.Data) // never satisfied
			}})
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("RunCtx panicked: %v", r)
					}
				}()
				err = sys.RunCtx(context.Background(), 1<<40)
			}()
			if msg := fmt.Sprint(err); !strings.Contains(msg, "core: rank 0") || !strings.Contains(msg, c.want) {
				t.Errorf("err = %v, want rank 0 error containing %q", err, c.want)
			}
			waitGoroutines(t, before)
		})
	}
}

// TestPanicUnwindLeaksNothing checks that a simulator panic escaping
// RunCtx (here the MPMMU rejecting an unlock of a lock nobody holds)
// still aborts every program on its way out.
func TestPanicUnwindLeaksNothing(t *testing.T) {
	sys := build(t, 2, 8, cache.WriteBack)
	before := runtime.NumGoroutine()
	sys.Launch([]pe.Program{
		func(env *pe.Env) { env.Unlock(sys.Map.SharedAddr(0)) },
		spin,
	})
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "does not own") {
				t.Errorf("recovered %v, want the MPMMU unlock panic", r)
			}
		}()
		_ = sys.Run(1 << 40)
	}()
	waitGoroutines(t, before)
}
