package noc

import "repro/internal/sim"

// switchStage is a network's whole switch phase: the one engine component
// behind all its routers. Each cycle it steps, in router-id order, only
// the routers with work in that cycle:
//
//   - a flit arriving on an input link: committing a link register stamps
//     the consuming router's wake slot with the cycle the flit is visible
//     in (sim.Reg.SetWake), so finding the arrivals costs one compare per
//     router;
//   - work of the router's own: flits stored in it (XY and wormhole
//     buffers) or a flit pending at its local port (routerPorts.idle);
//   - work handed over by a neighbour outside the links: a returned
//     wormhole credit stamps the receiving router's wake slot for the
//     cycle it is collected in.
//
// A router that sleeps is per-component fast-forward under the engine's
// NextEventer/Skipper contract and is exact for the same reason: stepping
// a router without work changes nothing but the per-cycle effects Skipped
// reproduces, and the stage calls Skipped(a, now) on a router that slept
// over cycles [a, now) just before its next Step. The engine's own idle
// jumps need nothing more from the stage, so it is not a Skipper.
type switchStage struct {
	eng     *sim.Engine
	routers []Router
	ports   []*routerPorts // routers[i].wiring()
	// wake[i] is the latest cycle at which an input link or a returned
	// credit has work for router i. Stamps are written for the current
	// cycle or the next, never later, so wake[i] >= now means "step".
	wake []int64
	// skip[i] is router i as a sim.Skipper (nil for the kinds without
	// per-cycle effects); next[i] is the first cycle router i has been
	// neither stepped nor compensated for.
	skip []sim.Skipper
	next []int64
}

// newSwitchStage builds the stage for routers, with every wake slot clear.
func newSwitchStage(e *sim.Engine, routers []Router) *switchStage {
	st := &switchStage{
		eng:     e,
		routers: routers,
		ports:   make([]*routerPorts, len(routers)),
		wake:    make([]int64, len(routers)),
		skip:    make([]sim.Skipper, len(routers)),
		next:    make([]int64, len(routers)),
	}
	for i, r := range routers {
		st.ports[i] = r.wiring()
		st.ports[i].wake = &st.wake[i]
		st.wake[i] = -1
		st.skip[i], _ = r.(sim.Skipper)
		st.next[i] = e.Now()
	}
	return st
}

// Name implements sim.Component.
func (st *switchStage) Name() string { return "switches" }

// Step implements sim.Component; it runs in sim.PhaseSwitch.
func (st *switchStage) Step(now int64) {
	for i, r := range st.routers {
		if st.wake[i] < now && st.ports[i].idle() {
			continue
		}
		if sk := st.skip[i]; sk != nil {
			if st.next[i] < now {
				sk.Skipped(st.next[i], now) // the cycles it slept over
			}
			st.next[i] = now + 1
		}
		r.Step(now)
	}
}

// NextEvent implements sim.NextEventer: now if any router has work (a due
// wake stamp, or work of its own), else NoEvent — an idle router stays
// idle until a neighbour, a link or its node gives it work.
func (st *switchStage) NextEvent(now int64) int64 {
	for i, rp := range st.ports {
		if st.wake[i] >= now || !rp.idle() {
			return now
		}
	}
	return sim.NoEvent
}

// stageSnap is the checkpointed state of a switch stage: its wake stamps
// and every router's own snapshot, taken with every router caught up to
// the snapshot cycle.
type stageSnap struct {
	wake    []int64
	routers []any
}

// Snapshot implements sim.Checkpointable. It first brings every sleeping
// router up to the current cycle, so the checkpoint holds each router's
// state as a fully ticked run would have it.
func (st *switchStage) Snapshot() any {
	now := st.eng.Now()
	snap := stageSnap{wake: append([]int64(nil), st.wake...), routers: make([]any, len(st.routers))}
	for i, r := range st.routers {
		if sk := st.skip[i]; sk != nil && st.next[i] < now {
			sk.Skipped(st.next[i], now)
			st.next[i] = now
		}
		snap.routers[i] = r.Snapshot()
	}
	return snap
}

// Restore implements sim.Checkpointable. The engine restores its clock
// before its components, so every router resumes caught up to it.
func (st *switchStage) Restore(snap any) {
	sn := snap.(stageSnap)
	copy(st.wake, sn.wake) // in place: the link registers point into it
	now := st.eng.Now()
	for i, r := range st.routers {
		r.Restore(sn.routers[i])
		st.next[i] = now
	}
}
