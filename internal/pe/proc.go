// Package pe models a MEDEA processing element: a simple in-order RISC-type
// core (the paper's Tensilica Xtensa-LX) with an L1 data cache, a pif2NoC
// bridge for shared-memory transactions, and a TIE message-passing port.
//
// Instead of an ISA interpreter, the core executes an abstract operation
// stream — compute bursts, loads/stores, cache control, lock/unlock, send/
// receive — with the latencies of the paper's cost model. Application code
// is ordinary Go running against the Env API as one coroutine per core
// (iter.Pull): the core resumes its program to fetch each operation, so
// only one side ever runs and the simulation stays deterministic.
package pe

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"

	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/stats"
	"repro/internal/tie"
)

type opKind int

const (
	opCompute opKind = iota
	opLoad
	opStore
	opLoadU
	opStoreU
	opFlush
	opInval
	opLock
	opUnlock
	opSend
	opRecv
	opRecvAny
	opHalt
)

type op struct {
	kind   opKind
	cycles int64
	addr   uint32
	size   int // 4 or 8 bytes
	value  uint64
	dst    int
	src    int
	class  tie.Class
	words  []uint32
}

type result struct {
	value uint64
	pkt   tie.Packet
}

// errProgramAborted is the sentinel the Env API panics with when the core
// aborts its program (run canceled, budget exhausted, or a sibling core
// failed). Launch's recovery wrapper swallows it — an abort is a clean
// unwind, not a program failure.
var errProgramAborted = errors.New("pe: program aborted")

type procState int

const (
	stNeedOp procState = iota
	stBusy
	stBridge
	stSending
	stReceiving
	stHalted
)

// Stats counts per-core events.
type Stats struct {
	Ops           stats.Counter
	ComputeCycles stats.Counter
	MemOps        stats.Counter
	UncachedOps   stats.Counter
	Sends         stats.Counter
	Recvs         stats.Counter
	Locks         stats.Counter
	StallCycles   stats.Counter // cycles spent waiting on memory/NoC
}

// Proc is one processing element. It implements sim.Component; register it
// in sim.PhaseNode.
type Proc struct {
	ID   int // node id on the NoC
	Rank int // dense application rank (0..P-1)

	Cache  *cache.Cache
	Bridge *bridge.Bridge
	Port   *tie.Port
	Cost   CostModel

	// next resumes the program coroutine until it issues its next
	// operation; stop unwinds it (see Abort).
	next func() (op, bool)
	stop func()

	st        procState
	busyUntil int64
	pending   op
	// stash is the result of the pending operation; the program reads it
	// when next resumes it.
	stash     result
	seq       memSeq
	lastCycle int64
	finish    int64

	// progErr records why the program terminated abnormally: an error
	// passed to Env.Fail, or a recovered panic with its stack. The program
	// writes it before its coroutine returns, so it is complete once the
	// core has halted (Halted() true).
	progErr error

	Stats Stats
}

// NewProc wires a processing element from its parts.
func NewProc(id, rank int, c *cache.Cache, b *bridge.Bridge, p *tie.Port, cost CostModel) *Proc {
	return &Proc{
		ID: id, Rank: rank,
		Cache: c, Bridge: b, Port: p, Cost: cost,
		st: stHalted, // until a program is launched
	}
}

// Name implements sim.Component.
func (p *Proc) Name() string { return fmt.Sprintf("pe%d", p.ID) }

// Program is the application code run by a core.
type Program func(env *Env)

// Launch wraps the program in a coroutine. The core resumes it to fetch
// its first operation on the next cycle. Call once per run.
//
// The coroutine is panic-isolated: a panic in program code is recovered,
// recorded (readable through ProgramErr once the core halts) and converted
// into a normal halt, so one faulty kernel fails its own run instead of
// taking down the whole process — essential when many simulations share a
// long-running server.
func (p *Proc) Launch(prog Program) {
	if p.st != stHalted {
		panic("pe: program already running")
	}
	p.progErr = nil
	p.st = stNeedOp
	p.next, p.stop = iter.Pull(func(yield func(op) bool) {
		defer func() {
			if r := recover(); r != nil && !isAbort(r) {
				p.progErr = fmt.Errorf("pe: program on core %d (rank %d) panicked: %v\n%s",
					p.ID, p.Rank, r, debug.Stack())
			}
		}()
		prog(&Env{p: p, yield: yield})
	})
}

// isAbort reports whether a recovered value is the clean-abort sentinel
// (raised by Env.issue after Abort or by Env.Fail).
func isAbort(r any) bool {
	err, ok := r.(error)
	return ok && errors.Is(err, errProgramAborted)
}

// Halted reports whether the program has finished.
func (p *Proc) Halted() bool { return p.st == stHalted }

// ProgramErr returns the error the program terminated with: an Env.Fail
// error, a recovered panic, or nil for a clean finish. Only meaningful
// once Halted() reports true.
func (p *Proc) ProgramErr() error { return p.progErr }

// Abort terminates a launched program that has not halted: it stops the
// coroutine, so the pending Env call (and any later one, should the
// program recover) panics with the abort sentinel, which Launch's wrapper
// recovers; Abort returns once the program has unwound. Call it from the
// simulation driver after abandoning a run (cancellation, cycle-budget
// exhaustion, a failed sibling core) so canceled jobs leak nothing. The
// core is left halted; the Proc must not be stepped again afterwards.
func (p *Proc) Abort() {
	if p.st == stHalted {
		return
	}
	p.stop()
	p.st = stHalted
}

// FinishCycle returns the cycle at which the program halted.
func (p *Proc) FinishCycle() int64 { return p.finish }

// Step implements sim.Component.
func (p *Proc) Step(now int64) {
	// Feed the transmit paths first so a flit can leave this cycle.
	p.Port.StepSend(now)
	p.Bridge.Step(now)

	switch p.st {
	case stHalted:
		return
	case stNeedOp:
		p.fetchOp(now)
	case stBusy:
		if now >= p.busyUntil {
			p.complete(now)
		} else {
			p.Stats.StallCycles.Inc()
		}
	case stBridge:
		res, ok := p.Bridge.Done()
		if !ok {
			p.Stats.StallCycles.Inc()
			return
		}
		p.seq.nread += copy(p.seq.read[p.seq.nread:], res.Data)
		p.advanceSeq(now)
	case stSending:
		if p.Port.SendBusy() {
			p.Stats.StallCycles.Inc()
			return
		}
		p.complete(now)
	case stReceiving:
		var pkt tie.Packet
		var ok bool
		if p.pending.kind == opRecvAny {
			pkt, ok = p.Port.TryRecvAny(p.pending.class)
		} else {
			pkt, ok = p.Port.TryRecv(p.pending.src, p.pending.class)
		}
		if !ok {
			p.Stats.StallCycles.Inc()
			return
		}
		p.stash = result{pkt: pkt}
		p.becomeBusy(now, 1+int64(len(pkt.Words))*p.Cost.RecvPerWord)
	}
}

// fetchOp resumes the program until it issues its next operation and
// starts that operation; a program that has returned halts the core. The
// program runs only inside next, so the simulator owns the only
// scheduling decision and the run stays deterministic.
func (p *Proc) fetchOp(now int64) {
	o, ok := p.next()
	if !ok {
		o = op{kind: opHalt}
	}
	p.Stats.Ops.Inc()
	p.pending = o
	switch o.kind {
	case opHalt:
		p.st = stHalted
		p.finish = now
	case opCompute:
		n := o.cycles
		if n < 1 {
			n = 1
		}
		p.Stats.ComputeCycles.Add(n)
		p.becomeBusy(now, n)
	case opSend:
		p.Stats.Sends.Inc()
		if err := p.Port.StartSend(o.dst, o.class, o.words, now); err != nil {
			panic(err)
		}
		p.st = stSending
	case opRecv, opRecvAny:
		p.Stats.Recvs.Inc()
		p.st = stReceiving
	case opLock, opUnlock:
		p.Stats.Locks.Inc()
		p.planLock(o)
		p.advanceSeq(now)
	case opLoad, opStore:
		p.Stats.MemOps.Inc()
		p.startCached(o, now)
	case opLoadU, opStoreU, opFlush, opInval:
		p.Stats.MemOps.Inc()
		p.planMem(o)
		p.advanceSeq(now)
	default:
		panic("pe: unknown op")
	}
}

func (p *Proc) becomeBusy(now, cycles int64) {
	if cycles < 1 {
		cycles = 1
	}
	p.busyUntil = now + cycles
	p.st = stBusy
}

// complete hands the stashed result to the program and immediately fetches
// the next operation, so back-to-back operations lose no cycles.
func (p *Proc) complete(now int64) {
	p.lastCycle = now
	p.st = stNeedOp
	p.fetchOp(now)
}
