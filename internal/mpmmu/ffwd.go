package mpmmu

import "repro/internal/sim"

// Pending implements noc.LocalPort: the outgoing-FIFO occupancy, which
// the MPMMU's switch reads to decide whether it has a flit to pull.
func (u *Unit) Pending() int { return u.outQ.Len() }

// NextEvent implements sim.NextEventer. A busy unit next acts when the
// access latency elapses at busyUntil; a collecting or idle unit acts as
// soon as its input queues hold a flit and is otherwise passive (flits
// still in flight keep the fabric busy by themselves).
func (u *Unit) NextEvent(now int64) int64 {
	switch u.st {
	case stBusy:
		return u.busyUntil
	case stCollect:
		if u.dataQ.Len() > 0 {
			return now
		}
		return sim.NoEvent
	default: // stIdle
		if u.reqQ.Len() > 0 || u.dataQ.Len() > 0 {
			return now
		}
		return sim.NoEvent
	}
}

// Skipped implements sim.Skipper: Step accounts one busy cycle per tick
// spent in stBusy, so skipped busy cycles are credited identically —
// MPMMUBusy is a reported figure and must not depend on fast-forwarding.
func (u *Unit) Skipped(from, to int64) {
	if u.st == stBusy {
		u.Stats.BusyCycles.Add(to - from)
	}
}
