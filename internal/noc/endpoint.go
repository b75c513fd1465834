package noc

import "repro/internal/flit"

// LocalPort is the interface between a switch and the node attached to it
// (a processing element's network interface, an MPMMU, or a traffic
// generator).
//
// TryPull is called by the switch at most once per cycle when it has a free
// output slot; the node hands over its next flit to inject, if any.
// Deliver is called by the switch at most once per cycle to eject a flit
// addressed to this node.
//
// Pending reports how many flits the node holds ready for injection. A
// switch with no flit arriving steps only when it is non-zero, so TryPull
// must fail, and change nothing, whenever Pending returns 0.
//
// Nodes run in sim.PhaseNode and switches in sim.PhaseSwitch, so a flit
// enqueued by a node is injectable in the same cycle, giving the paper's
// peak throughput of one flit per cycle.
type LocalPort interface {
	TryPull() (flit.Flit, bool)
	Deliver(f flit.Flit, now int64)
	Pending() int
}

// nullPort is attached to switches with no node; it never injects and
// counts (in tests, via the network stats) any stray delivery.
type nullPort struct{ delivered int64 }

func (n *nullPort) TryPull() (flit.Flit, bool) { return flit.Flit{}, false }
func (n *nullPort) Deliver(flit.Flit, int64)   { n.delivered++ }
func (n *nullPort) Pending() int               { return 0 }
