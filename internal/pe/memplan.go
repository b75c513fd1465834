package pe

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bridge"
	"repro/internal/cache"
)

// finishKind selects the finishing action of a memory micro-sequence.
type finishKind uint8

const (
	finNone         finishKind = iota // one core cycle, no result
	finUncachedLoad                   // assemble the value from the read words
	finMiss                           // fill the line, then access it as a hit
)

// memSeq is a micro-sequence implementing one architectural memory
// operation: up to two bridge transactions executed in order, then a
// finishing action that updates the cache and produces the result plus the
// final core-side latency (typically the L1 access cycle). The core runs
// one operation at a time, so each Proc reuses a single memSeq and the
// path allocates nothing: write data live in data, and the words of read
// transactions are gathered into read as they complete.
type memSeq struct {
	txns  [2]bridge.Txn
	n, at int // planned transactions; index of the next to start
	fin   finishKind
	data  [cache.LineBytes / 4]uint32
	read  [cache.LineBytes / 4]uint32
	nread int
	buf   [cache.LineBytes]byte // line image moved to or from the cache
}

// plan resets the micro-sequence for a new operation.
func (p *Proc) plan(fin finishKind) *memSeq {
	s := &p.seq
	s.n, s.at, s.nread, s.fin = 0, 0, 0, fin
	return s
}

func (s *memSeq) add(kind bridge.TxnKind, addr uint32, data []uint32) {
	s.txns[s.n] = bridge.Txn{Kind: kind, Addr: addr, Data: data}
	s.n++
}

func (p *Proc) planLock(o op) {
	kind := bridge.TxnLock
	if o.kind == opUnlock {
		kind = bridge.TxnUnlock
	}
	p.plan(finNone).add(kind, o.addr, nil)
}

// planMem plans the transactions for an uncached load/store, a flush or an
// invalidate. Planning happens when the operation starts; since the core
// is blocking and in-order, cache state cannot change underneath the plan.
func (p *Proc) planMem(o op) {
	switch o.kind {
	case opFlush:
		// Software cache flush: write the dirty line back to system
		// memory so producer-side coherency holds (paper §II-E).
		s := p.plan(finNone)
		if p.Cache.FlushLineInto(o.addr, s.buf[:]) {
			s.add(bridge.TxnBlockWrite, cache.LineAddr(o.addr), wordsOf(s.data[:], s.buf[:]))
		}
	case opInval:
		// The DII instruction: drop the line so the next access fetches
		// from system memory (consumer-side coherency).
		p.plan(finNone)
		p.Cache.InvalidateLine(o.addr)
	case opLoadU:
		p.Stats.UncachedOps.Inc()
		s := p.plan(finUncachedLoad)
		s.add(bridge.TxnSingleRead, o.addr, nil)
		if o.size == 8 {
			s.add(bridge.TxnSingleRead, o.addr+4, nil)
		}
	case opStoreU:
		p.planStoreThrough(o.addr, o.size, o.value)
	default:
		panic("pe: not a memory op")
	}
}

// startCached dispatches a cached load/store. Hits complete without
// building a transaction plan (the simulator's hottest path); misses fall
// through to the micro-sequence machinery.
func (p *Proc) startCached(o op, now int64) {
	if p.Cache.Lookup(o.addr) {
		if o.kind == opLoad {
			p.stash = result{value: p.Cache.ReadUint(o.addr, o.size)}
			p.becomeBusy(now, p.Cost.CacheHit)
			return
		}
		// Store hit: update the line; write-through additionally sends
		// the store to system memory and the core stalls for the
		// protocol round trips (no store buffer, as in the paper's
		// simple core).
		p.Cache.WriteUint(o.addr, o.size, o.value)
		if p.Cache.Policy() == cache.WriteThrough {
			p.planStoreThrough(o.addr, o.size, o.value)
			p.advanceSeq(now)
			return
		}
		p.becomeBusy(now, p.Cost.CacheHit)
		return
	}
	p.planMiss(o)
	p.advanceSeq(now)
}

// planStoreThrough plans the single-write transactions of an uncached or
// write-through store (one per 32-bit word).
func (p *Proc) planStoreThrough(addr uint32, size int, value uint64) {
	p.Stats.UncachedOps.Inc()
	s := p.plan(finNone)
	s.data[0], s.data[1] = uint32(value), uint32(value>>32)
	s.add(bridge.TxnSingleWrite, addr, s.data[0:1])
	if size == 8 {
		s.add(bridge.TxnSingleWrite, addr+4, s.data[1:2])
	}
}

// planMiss plans the transactions for a load/store miss; the lookup has
// already been performed (and counted) by startCached.
func (p *Proc) planMiss(o op) {
	line := cache.LineAddr(o.addr)
	wb := p.Cache.Policy() == cache.WriteBack
	if !wb && o.kind == opStore {
		// Write-through, write-no-allocate: a store miss goes straight
		// to system memory.
		p.planStoreThrough(o.addr, o.size, o.value)
		return
	}
	s := p.plan(finMiss)
	if wb {
		if vaddr, needsWB := p.Cache.VictimInto(line, s.buf[:]); needsWB {
			s.add(bridge.TxnBlockWrite, vaddr, wordsOf(s.data[:], s.buf[:]))
		}
	}
	s.add(bridge.TxnBlockRead, line, nil)
}

// advanceSeq starts the next planned transaction or, once all are done,
// runs the finishing action.
func (p *Proc) advanceSeq(now int64) {
	s := &p.seq
	if s.at < s.n {
		p.Bridge.Start(s.txns[s.at], now)
		s.at++
		p.st = stBridge
		return
	}
	extra := int64(1)
	switch s.fin {
	case finUncachedLoad:
		v := uint64(s.read[0])
		if p.pending.size == 8 {
			v |= uint64(s.read[1]) << 32
		}
		p.stash = result{value: v}
	case finMiss:
		extra = p.finishMiss()
	}
	p.becomeBusy(now, extra)
}

// finishMiss installs the fetched line and completes the pending access
// as a hit.
func (p *Proc) finishMiss() int64 {
	o := p.pending
	p.Cache.Fill(cache.LineAddr(o.addr), bytesOf(p.seq.buf[:], p.seq.read[:]))
	switch o.kind {
	case opLoad:
		p.stash = result{value: p.Cache.ReadUint(o.addr, o.size)}
	case opStore:
		if p.Cache.Policy() != cache.WriteBack {
			// Unreachable: WT store misses never allocate.
			panic("pe: write-through store allocated")
		}
		p.Cache.WriteUint(o.addr, o.size, o.value)
	default:
		panic("pe: bad cached op")
	}
	return p.Cost.CacheHit
}

func checkAlign(addr uint32, size int) {
	if size != 4 && size != 8 {
		panic(fmt.Sprintf("pe: unsupported access size %d", size))
	}
	if addr%uint32(size) != 0 {
		panic(fmt.Sprintf("pe: unaligned %d-byte access at %#x", size, addr))
	}
}

// wordsOf decodes the little-endian words of b into dst and returns them.
func wordsOf(dst []uint32, b []byte) []uint32 {
	if len(b)%4 != 0 {
		panic("pe: byte slice not word-aligned")
	}
	dst = dst[:len(b)/4]
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return dst
}

// bytesOf encodes words little-endian into dst and returns the bytes.
func bytesOf(dst []byte, words []uint32) []byte {
	dst = dst[:4*len(words)]
	for i, w := range words {
		binary.LittleEndian.PutUint32(dst[4*i:], w)
	}
	return dst
}
