package noc

// Fast-forward and checkpoint capabilities of the switches and the cmesh
// concentrator (see internal/sim/ffwd.go and internal/sim/snapshot.go for
// the engine-side contracts; the traffic nodes' pre-drawn gating lives in
// traffic.go). The switches reach the engine only through the switch
// stage (stage.go), which decides every cycle which of them to step and
// answers the engine's idle probe for all of them.
//
// What "idle" means for a switch, given no flit arriving on an input link
// (the stage wakes a switch for an arrival by itself): nothing stored in
// the switch and nothing pending at its local port (routerPorts.idle).
// Per router kind:
//
//   - Deflection and adaptive switches store nothing between cycles, so
//     an idle one is fully passive.
//   - The XY switch's round-robin pointer advances every cycle, idle or
//     not, so cycles it sleeps through are compensated in Skipped.
//   - A wormhole switch must also collect a returned credit on the cycle
//     after its return (the fold's parity comes from the clock);
//     returnCredit wakes the receiving switch through the stage for
//     exactly that cycle.
//   - The concentrator is passive unless its output latch is occupied
//     (the switch must drain it); endpoints with queued flits keep the
//     engine ticking by themselves (TrafficNode.NextEvent returns now).

import (
	"repro/internal/flit"
	"repro/internal/queue"
	"repro/internal/sim"
)

// Snapshot implements sim.Checkpointable.
func (s *DeflSwitch) Snapshot() any { return s.Stats }

// Restore implements sim.Checkpointable.
func (s *DeflSwitch) Restore(snap any) { s.Stats = snap.(SwitchStats) }

// Snapshot implements sim.Checkpointable.
func (s *AdaptiveSwitch) Snapshot() any { return s.Stats }

// Restore implements sim.Checkpointable.
func (s *AdaptiveSwitch) Restore(snap any) { s.Stats = snap.(SwitchStats) }

// Skipped implements sim.Skipper: Step advances the round-robin pointer
// unconditionally every cycle, including idle ones, so skipped cycles must
// advance it by exactly the same amount. The switch stage calls it for the
// cycles the switch slept through, just before its next Step.
func (s *XYSwitch) Skipped(from, to int64) {
	nq := len(s.queues)
	s.rrStart = (s.rrStart + int((to-from)%int64(nq))) % nq
}

// xySnap is the checkpointed state of an XYSwitch.
type xySnap struct {
	queues   [NumPorts + 1][]flit.Flit
	rrStart  int
	buffered int
	peakBuf  int
	stats    XYStats
}

// Snapshot implements sim.Checkpointable.
func (s *XYSwitch) Snapshot() any {
	snap := xySnap{rrStart: s.rrStart, buffered: s.buffered, peakBuf: s.peakBuf, stats: s.Stats}
	for q := range s.queues {
		if len(s.queues[q]) > 0 {
			snap.queues[q] = append([]flit.Flit(nil), s.queues[q]...)
		}
	}
	return snap
}

// Restore implements sim.Checkpointable.
func (s *XYSwitch) Restore(snap any) {
	sn := snap.(xySnap)
	for q := range s.queues {
		s.queues[q] = append(s.queues[q][:0], sn.queues[q]...)
	}
	s.rrStart, s.buffered, s.peakBuf, s.Stats = sn.rrStart, sn.buffered, sn.peakBuf, sn.stats
}

// whSnap is the checkpointed state of a WormholeSwitch.
type whSnap struct {
	bufs      [NumPorts][WormholeVCs]fifoSnap
	injQ      fifoSnap
	credits   [NumPorts][WormholeVCs]int
	pending   [2][NumPorts][WormholeVCs]int
	buffered  int
	peakBuf   int
	minCredit int
	stats     WormholeStats
}

type fifoSnap = queue.Snap[flit.Flit]

// Snapshot implements sim.Checkpointable.
func (s *WormholeSwitch) Snapshot() any {
	snap := whSnap{
		credits: s.credits, pending: s.pending,
		buffered: s.buffered, peakBuf: s.peakBuf, minCredit: s.minCredit,
		stats: s.Stats,
		injQ:  s.injQ.Snapshot(),
	}
	for p := range s.bufs {
		for v := range s.bufs[p] {
			snap.bufs[p][v] = s.bufs[p][v].Snapshot()
		}
	}
	return snap
}

// Restore implements sim.Checkpointable.
func (s *WormholeSwitch) Restore(snap any) {
	sn := snap.(whSnap)
	for p := range s.bufs {
		for v := range s.bufs[p] {
			s.bufs[p][v].Restore(sn.bufs[p][v])
		}
	}
	s.injQ.Restore(sn.injQ)
	s.credits, s.pending = sn.credits, sn.pending
	s.buffered, s.peakBuf, s.minCredit = sn.buffered, sn.peakBuf, sn.minCredit
	s.Stats = sn.stats
}

// NextEvent implements sim.NextEventer: an occupied latch means the switch
// must step to drain it; an empty latch with idle endpoints means nothing
// to multiplex (endpoints holding flits report now themselves).
func (c *concentrator) NextEvent(now int64) int64 {
	if c.hasLatch {
		return now
	}
	for _, ep := range c.eps {
		if ep.Pending() > 0 {
			return now
		}
	}
	return sim.NoEvent
}

// Pending implements LocalPort for the switch side: the concentrator is
// the switch's local port on concentrated topologies, and its injectable
// backlog is the latch.
func (c *concentrator) Pending() int {
	if c.hasLatch {
		return 1
	}
	return 0
}

// concSnap is the checkpointed state of a concentrator.
type concSnap struct {
	rr          int
	latch       flit.Flit
	hasLatch    bool
	turnarounds int64
}

// Snapshot implements sim.Checkpointable.
func (c *concentrator) Snapshot() any {
	return concSnap{rr: c.rr, latch: c.latch, hasLatch: c.hasLatch, turnarounds: c.turnarounds}
}

// Restore implements sim.Checkpointable.
func (c *concentrator) Restore(snap any) {
	sn := snap.(concSnap)
	c.rr, c.latch, c.hasLatch, c.turnarounds = sn.rr, sn.latch, sn.hasLatch, sn.turnarounds
}
