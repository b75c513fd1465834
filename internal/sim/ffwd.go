package sim

// Idle fast-forward: when no register holds an observable value (the
// previous Tick committed nothing) and every registered component can
// report the next cycle at which it may act, the engine jumps the clock to
// the earliest such cycle instead of ticking empty cycles one by one.
// Syncbench episodes and low-load NoC sweeps are mostly idle, so skipping
// the empty cycles is the next multiplier after PR 1's constant-factor
// work on Tick itself.
//
// The probe runs before every tick of a quiet engine, including the many
// where some component has work, so it must be cheap: it asks the
// component that vetoed the previous probe first and stops at the first
// veto, so a stretch in which one component stays busy costs one
// NextEvent call per tick (see maybeFastForward).
//
// Correctness contract: a skipped cycle must be indistinguishable from a
// ticked one. Components whose Step mutates state unconditionally every
// cycle (stall counters, round-robin pointers, pre-drawn RNG gating)
// implement Skipper and compensate exactly; everything else must be a pure
// no-op on the cycles being skipped. The differential battery in
// internal/scenario asserts byte-identical results with fast-forward on
// and off across every shipped scenario.

import "math"

// NoEvent is the NextEvent return value meaning "never": the component
// cannot act again until some other component or register wakes it.
const NoEvent = math.MaxInt64

// NextEventer is the optional component capability behind idle
// fast-forward. NextEvent returns the earliest cycle >= now at which the
// component may do anything observable, assuming no register becomes
// valid in the meantime (the engine only asks while the register file is
// quiet). Returning now (or anything <= now) vetoes skipping; returning
// NoEvent means the component is fully passive until external input
// arrives.
type NextEventer interface {
	NextEvent(now int64) int64
}

// Skipper is the optional companion capability for components whose Step
// has unconditional per-cycle effects. When the engine jumps the clock
// from from to to (cycles from..to-1 are never ticked), Skipped must apply
// exactly the state changes those Steps would have made — stall-counter
// increments, round-robin advances, and the like.
type Skipper interface {
	Skipped(from, to int64)
}

// defaultFFwdOff is the process-wide default for new engines; the CLIs'
// -no-ffwd escape hatch sets it before any simulation starts. Inverted so
// the zero value means "fast-forward on".
var defaultFFwdOff bool

// SetDefaultFastForward sets whether newly created engines fast-forward
// idle stretches (default true). Call it before building engines; it is
// the -no-ffwd escape hatch, not a per-run toggle — use
// Engine.SetFastForward for that.
func SetDefaultFastForward(enabled bool) { defaultFFwdOff = !enabled }

// DefaultFastForward reports the process-wide default.
func DefaultFastForward() bool { return !defaultFFwdOff }

// SetFastForward enables or disables idle fast-forward on this engine.
func (e *Engine) SetFastForward(enabled bool) { e.ffwdOff = !enabled }

// CyclesSkipped returns the number of cycles the engine advanced by
// fast-forward jumps instead of ticking. It is a pure performance
// counter: results are byte-identical whatever its value.
func (e *Engine) CyclesSkipped() int64 { return e.cyclesSkipped }

// maybeFastForward jumps the clock to the earliest next-event cycle
// (clamped to limit) when the engine is quiet and every component
// cooperates. Called by the run loops before each Tick; a no-op whenever
// any precondition fails, so engines with non-NextEventer components
// simply never skip.
//
// The probe asks first the eventer that vetoed the previous probe: a busy
// stretch is usually one component's work (a PE computing, a switch
// draining its node), so one call settles most probes instead of a sweep
// over every component. The order cannot change the outcome: NextEvent is
// a query whose answer does not depend on which other components were
// asked before it (TrafficNode's pre-draw consumes each cycle's random
// draw once, in cycle order, whichever probe first reaches that cycle).
func (e *Engine) maybeFastForward(limit int64) {
	if e.ffwdOff || !e.quiet || e.nonEventers > 0 || len(e.eventers) == 0 {
		return
	}
	now := e.cycle
	next := e.eventers[e.lastVeto].NextEvent(now)
	if next <= now {
		return // the last vetoer still has work: tick normally
	}
	next = min(next, limit)
	for i, ev := range e.eventers {
		if i == e.lastVeto {
			continue
		}
		t := ev.NextEvent(now)
		if t <= now {
			e.lastVeto = i // someone may act this cycle: tick normally
			return
		}
		next = min(next, t)
	}
	if next <= now {
		return
	}
	for _, sk := range e.skippers {
		sk.Skipped(now, next)
	}
	e.cyclesSkipped += next - now
	e.cycle = next
}
