package tie

import (
	"errors"

	"repro/internal/flit"
)

var (
	errOverflow = errors.New("tie: packet buffer ring overflow")
	errCorrupt  = errors.New("tie: flits of different packets mixed in one buffer")
)

// assembler is the per-(source, class) receive reassembly unit: incoming
// flits are scattered by sequence number into the packet buffer selected
// by the flit's 2-bit packet index. Completed packets are emitted in
// packet-index order, preserving per-source FIFO delivery. This
// generalizes the paper's double buffer to a four-buffer ring (see the
// flit.PktIdx documentation); the buffers tolerate up to three logical
// packets of skew between consecutive packets from the same source.
type assembler struct {
	bufs   [flit.NumPktIdx]asmBuf
	cursor uint8 // next packet index to emit
}

type asmBuf struct {
	active   bool
	complete bool
	need     int
	have     uint32 // bitmask of received sequence numbers
	count    int
	words    [flit.MaxLogicalPacket]uint32
	pktID    uint64 // simulation-only integrity check
}

func (b *asmBuf) reset() { *b = asmBuf{} }

// add places f into the buffer. The returned error flags violations that
// real hardware would turn into silent data corruption; the simulator
// counts them and tests assert zero.
func (b *asmBuf) add(f flit.Flit) error {
	if !b.active {
		b.active = true
		b.need = f.BurstLen()
		b.pktID = f.Meta.PacketID
	}
	switch {
	case b.pktID != f.Meta.PacketID:
		// A flit of a packet 4 ahead: the ring is too shallow for the
		// skew. Drop the flit (its packet will never complete).
		return errOverflow
	case b.complete, b.have&(1<<f.Seq) != 0, b.need != f.BurstLen():
		return errCorrupt
	}
	b.have |= 1 << f.Seq
	b.words[f.Seq] = f.Data
	b.count++
	if b.count >= b.need {
		b.complete = true
	}
	return nil
}

// place routes a flit to its ring buffer and hands the words of every
// packet that completed to emit, in FIFO order. The words are only valid
// during the call.
func (a *assembler) place(f flit.Flit, emit func(words []uint32)) error {
	if int(f.Seq) >= f.BurstLen() {
		// Sequence number beyond the burst length: a corrupted burst
		// field; real hardware would scribble out of bounds.
		return errCorrupt
	}
	err := a.bufs[f.PktIdx].add(f)
	for b := &a.bufs[a.cursor]; b.complete; b = &a.bufs[a.cursor] {
		emit(b.words[:b.need])
		b.reset()
		a.cursor = (a.cursor + 1) % flit.NumPktIdx
	}
	return err
}
