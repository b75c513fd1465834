// Package sim provides the deterministic, cycle-accurate simulation engine
// that replaces the paper's SystemC models.
//
// The engine is a two-phase synchronous clock: on every cycle each
// registered component's Step method runs exactly once, grouped into
// ordered phases, and then all registers commit. Inter-component state that
// must behave like a hardware register (visible one cycle after it is
// written) lives in Reg values; intra-cycle producer/consumer hand-off
// (e.g. a switch pulling a flit from its local node in the same cycle) is
// expressed by placing the producer in an earlier phase than the consumer.
//
// Determinism: components run in registration order within a phase, all
// randomness flows through explicitly seeded RNGs, and no map iteration
// affects behaviour. Two runs of the same configuration produce identical
// cycle counts, which the integration tests assert.
//
// # Performance
//
// Tick is the simulator's innermost loop: every workload cycle executes
// every component Step plus the register-commit pass, so its constant
// factors multiply across the millions of cycles behind each design-space
// point. The commit pass therefore uses a dirty list instead of scanning
// all registers: Set enqueues the register's index on the engine's
// per-cycle dirty list (a pointer-free int32 slice, so the append has no
// GC write barrier, resolved through a table of pre-bound commit functions
// rather than an interface dispatch), and Tick commits only the registers
// written during the cycle. A register that holds a value but is not
// rewritten must still drain — links do not hold flits across idle cycles
// — which is implemented lazily: commit stamps the register with the one
// cycle during which its value is observable, and Valid/Get compare that
// stamp against the engine clock, so an idle register expires without
// ever being touched again. In a 4x4 mesh at realistic loads the
// overwhelming majority of the 64 link registers are idle on any given
// cycle, and the engine pays nothing for them.
//
// A register can also tell its consumer when it holds a value: SetWake
// points it at a stamp that every commit overwrites with the cycle the
// value is observable in. The NoC's switch stage registers as one
// component for all its switches and uses those stamps to step only the
// switches a flit arrives at, plus those with work of their own, so an
// idle switch costs a stamp compare and an idle check per cycle rather
// than a Step.
//
// Idle cycles of the whole engine are skipped by fast-forward (ffwd.go):
// before each tick of a quiet engine, one probe asks the components for
// their next event, starting with the one that vetoed the previous probe.
//
// Run `go test ./internal/noc -bench BenchmarkTick -run '^$'` to measure
// the per-cycle cost on the paper's 4x4 mesh, and see the repository
// doc.go Performance section for profiling the full experiment binaries.
package sim

import (
	"context"
	"errors"
	"fmt"
)

// Component is a clocked hardware block. Step is called once per cycle with
// the current cycle number.
type Component interface {
	// Name identifies the component in traces and error messages.
	Name() string
	// Step advances the component by one cycle.
	Step(now int64)
}

// Phases used by the MEDEA system. Nodes (PEs, bridges, MPMMU) run before
// switches so that a switch can pull a freshly produced flit in the same
// cycle (1 flit/cycle injection as in the paper).
const (
	PhaseNode   = 0
	PhaseSwitch = 1
	numPhases   = 2
)

// commitFunc commits one dirty register, making its value observable during
// the given cycle. Using a concrete function table instead of an interface
// keeps the commit loop free of interface dispatch.
type commitFunc func(visibleAt int64)

// Engine drives a set of components cycle by cycle.
type Engine struct {
	phases [numPhases][]Component
	// commitFns holds one pre-bound commit function per register, in
	// creation order; a register is addressed by its index. The dirty list
	// stores indices rather than the function values themselves so that
	// enqueueing a register is a pointer-free int32 append (no GC write
	// barrier on the per-cycle path).
	commitFns []commitFunc
	// regSnaps holds the registers' snapshot/restore closures, parallel to
	// commitFns; used only by Snapshot/Restore, never on the tick path.
	regSnaps []regSnapFns
	// dirty holds the registers written during the current cycle (enqueued
	// by Reg.Set); only these commit at the end of the cycle. spare
	// recycles the previous cycle's backing array so steady-state ticking
	// does not allocate.
	dirty []int32
	spare []int32
	cycle int64

	// Idle fast-forward state (see ffwd.go). eventers/skippers cache the
	// capability interfaces of the registered components; nonEventers
	// counts components that cannot report a next-event cycle (any such
	// component disables fast-forward for the whole engine). lastVeto
	// indexes the eventer that vetoed the previous probe; the next probe
	// asks it first. quiet tracks whether the previous Tick committed
	// nothing, i.e. no register holds an observable value in the current
	// cycle.
	eventers      []NextEventer
	skippers      []Skipper
	nonEventers   int
	lastVeto      int
	quiet         bool
	ffwdOff       bool
	cyclesSkipped int64
	// ctxCheckAt is the next cycle at which the context-aware run loops
	// poll for cancellation. It lives on the engine, not in the loops, so
	// a job composed of many short RunCtx calls still observes
	// cancellation within ctxCheckInterval cycles overall.
	ctxCheckAt int64
}

// addReg registers a commit function plus the snapshot/restore pair for
// the same register and returns the register's index.
func (e *Engine) addReg(fn commitFunc, snap func() any, restore func(any)) int32 {
	e.commitFns = append(e.commitFns, fn)
	e.regSnaps = append(e.regSnaps, regSnapFns{snap: snap, restore: restore})
	return int32(len(e.commitFns) - 1)
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine {
	return &Engine{quiet: true, ffwdOff: !DefaultFastForward()}
}

// Register adds a component to the given phase. Components in lower phases
// step before components in higher phases within one cycle.
func (e *Engine) Register(phase int, c Component) {
	if phase < 0 || phase >= numPhases {
		panic(fmt.Sprintf("sim: invalid phase %d", phase))
	}
	e.phases[phase] = append(e.phases[phase], c)
	if ev, ok := c.(NextEventer); ok {
		e.eventers = append(e.eventers, ev)
	} else {
		e.nonEventers++
	}
	if sk, ok := c.(Skipper); ok {
		e.skippers = append(e.skippers, sk)
	}
}

// Now returns the current cycle number.
func (e *Engine) Now() int64 { return e.cycle }

// Tick runs one full cycle: all phases in order, then the dirty-register
// commit.
func (e *Engine) Tick() {
	now := e.cycle
	for p := 0; p < numPhases; p++ {
		for _, c := range e.phases[p] {
			c.Step(now)
		}
	}
	// Commit the dirty list: exactly the registers written this cycle.
	// Unwritten registers expire by themselves (their validity stamp stops
	// matching the clock), so they cost nothing here. Commit order follows
	// write order, which is deterministic because components step in
	// registration order; commits are independent per register, so order
	// does not affect behaviour.
	visibleAt := e.cycle + 1
	fns := e.commitFns
	for _, i := range e.dirty {
		fns[i](visibleAt)
	}
	// An empty dirty list means no register holds an observable value next
	// cycle — the precondition for idle fast-forward (see ffwd.go).
	e.quiet = len(e.dirty) == 0
	e.dirty, e.spare = e.spare[:0], e.dirty[:0]
	e.cycle++
}

// ErrTimeout is returned by RunUntil when the predicate does not become
// true within the cycle budget.
var ErrTimeout = errors.New("sim: cycle budget exhausted")

// RunUntil ticks the engine until done() reports true or maxCycles
// additional cycles have elapsed, in which case it returns ErrTimeout.
// done is evaluated before each tick, so a predicate that is already true
// costs zero cycles.
func (e *Engine) RunUntil(done func() bool, maxCycles int64) error {
	return e.RunUntilCtx(context.Background(), done, maxCycles)
}

// ctxCheckInterval is how many cycles elapse between context polls in the
// context-aware run loops: frequent enough that a canceled simulation
// stops within microseconds of wall time, rare enough that the check is
// invisible on the tick path.
const ctxCheckInterval = 1024

// pollCtx checks for cancellation when the engine clock has reached the
// next poll point. The poll point is engine state, not loop state: a job
// composed of many short RunCtx calls advances toward the same poll point
// across calls and still observes cancellation within ctxCheckInterval
// cycles overall (a sequence of sub-interval runs previously never
// polled).
func (e *Engine) pollCtx(ctx context.Context) error {
	if e.cycle < e.ctxCheckAt {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sim: run canceled at cycle %d: %w", e.cycle, err)
	}
	e.ctxCheckAt = e.cycle + ctxCheckInterval
	return nil
}

// RunUntilCtx is RunUntil with cooperative cancellation: the context is
// polled every ctxCheckInterval cycles, so a canceled or deadline-exceeded
// run stops in bounded time (mid-simulation, not at run granularity) and
// returns the context's error.
func (e *Engine) RunUntilCtx(ctx context.Context, done func() bool, maxCycles int64) error {
	deadline := e.cycle + maxCycles
	for !done() {
		if e.cycle >= deadline {
			return fmt.Errorf("%w after %d cycles", ErrTimeout, maxCycles)
		}
		if err := e.pollCtx(ctx); err != nil {
			return err
		}
		e.maybeFastForward(deadline)
		if e.cycle >= deadline {
			continue // jumped to the deadline: re-check done, then time out
		}
		e.Tick()
	}
	return nil
}

// Run ticks the engine for n cycles (fewer ticks when idle fast-forward
// jumps the clock; the engine still ends exactly n cycles later).
func (e *Engine) Run(n int64) {
	end := e.cycle + n
	for e.cycle < end {
		e.maybeFastForward(end)
		if e.cycle >= end {
			break
		}
		e.Tick()
	}
}

// RunCtx ticks the engine for n cycles, polling the context every
// ctxCheckInterval cycles; it returns the context's error if canceled
// mid-run, leaving the engine at the cycle it stopped on.
func (e *Engine) RunCtx(ctx context.Context, n int64) error {
	end := e.cycle + n
	for e.cycle < end {
		if err := e.pollCtx(ctx); err != nil {
			return err
		}
		e.maybeFastForward(end)
		if e.cycle >= end {
			break
		}
		e.Tick()
	}
	return nil
}

// Reg is a single hardware register holding a value of type T with a valid
// flag. Reads observe the value committed at the end of the previous cycle;
// writes become visible after the next commit. This gives order-independent
// semantics between components in the same phase.
type Reg[T any] struct {
	eng *Engine
	idx int32 // index into the engine's commit-function table
	// validAt is the single cycle during which cur is observable: a write
	// committed at the end of cycle N is visible during cycle N+1 and
	// expires by itself afterwards (links do not hold flits across idle
	// cycles), without the register ever appearing on a second dirty list.
	validAt   int64
	cur, next T
	written   bool
	name      string
	// wake, when set, receives validAt on every commit: the consumer of
	// the register learns which cycle the value is for without polling
	// it (see SetWake).
	wake *int64
}

// NewReg creates a register attached to the engine.
func NewReg[T any](e *Engine, name string) *Reg[T] {
	r := &Reg[T]{eng: e, name: name, validAt: -1}
	r.idx = e.addReg(r.commit, r.snapshot, r.restore)
	return r
}

// regSnap is one register's checkpointed state: the committed value and
// the single cycle during which it is observable. Pending writes are
// excluded by construction — Snapshot refuses to run with a non-empty
// dirty list.
type regSnap[T any] struct {
	cur     T
	validAt int64
}

// snapshot captures the register for Engine.Snapshot.
func (r *Reg[T]) snapshot() any { return regSnap[T]{cur: r.cur, validAt: r.validAt} }

// restore reinstates a snapshot taken from this same register.
func (r *Reg[T]) restore(s any) {
	rs := s.(regSnap[T])
	r.cur, r.validAt, r.written = rs.cur, rs.validAt, false
}

// SetWake makes every commit of the register store the cycle during which
// the new value is observable into *stamp. A consumer that steps only on
// cycles it has work (the NoC's switch stage) compares the stamp against
// the clock instead of polling its input registers.
func (r *Reg[T]) SetWake(stamp *int64) { r.wake = stamp }

// Valid reports whether the register currently holds a value.
func (r *Reg[T]) Valid() bool { return r.validAt == r.eng.cycle }

// Get returns the current value and whether it is valid.
func (r *Reg[T]) Get() (T, bool) {
	if r.validAt == r.eng.cycle {
		return r.cur, true
	}
	var zero T
	return zero, false
}

// Set writes a value that becomes visible after the next commit. Writing a
// register twice in one cycle is a wiring bug and panics.
func (r *Reg[T]) Set(v T) {
	if r.written {
		panic("sim: register " + r.name + " written twice in one cycle")
	}
	r.next, r.written = v, true
	r.eng.dirty = append(r.eng.dirty, r.idx)
}

// commit latches next into cur and stamps the cycle during which the value
// is observable. Only written registers are committed; everything else
// expires lazily through the stamp comparison in Valid/Get.
func (r *Reg[T]) commit(visibleAt int64) {
	r.cur = r.next
	r.validAt = visibleAt
	r.written = false
	if r.wake != nil {
		*r.wake = visibleAt
	}
}

// FuncComponent adapts a function to the Component interface, handy in
// tests and small glue blocks.
type FuncComponent struct {
	ComponentName string
	Fn            func(now int64)
}

// Name implements Component.
func (f *FuncComponent) Name() string { return f.ComponentName }

// Step implements Component.
func (f *FuncComponent) Step(now int64) { f.Fn(now) }
