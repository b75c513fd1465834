package pe

import (
	"testing"
	"testing/quick"
)

func TestDefaultCostMatchesPaper(t *testing.T) {
	// The paper: double-precision adds/subtracts average 19 cycles;
	// multiplies average 26 cycles with the Multiply High option.
	if DefaultCost.FPAdd != 19 {
		t.Errorf("FPAdd = %d, want 19", DefaultCost.FPAdd)
	}
	if DefaultCost.FPMul != 26 {
		t.Errorf("FPMul = %d, want 26", DefaultCost.FPMul)
	}
	if DefaultCost.CacheHit != 1 || DefaultCost.IntOp != 1 {
		t.Error("single-cycle hits and integer ops expected")
	}
}

func TestMulHighOff(t *testing.T) {
	// Without Multiply High the paper quotes 60-cycle multiplies.
	c := MulHighOff()
	if c.FPMul != 60 {
		t.Errorf("FPMul = %d, want 60", c.FPMul)
	}
	if c.FPAdd != DefaultCost.FPAdd {
		t.Error("other costs must be unchanged")
	}
}

func TestWordsBytesRoundTrip(t *testing.T) {
	words := []uint32{0x01020304, 0xA0B0C0D0, 0, 0xFFFFFFFF}
	b := bytesOf(make([]byte, 16), words)
	if len(b) != 16 {
		t.Fatalf("bytesOf returned %d bytes", len(b))
	}
	back := wordsOf(make([]uint32, 4), b)
	for i := range words {
		if back[i] != words[i] {
			t.Fatalf("word %d: %#x != %#x", i, back[i], words[i])
		}
	}
}

func TestWordsBytesQuick(t *testing.T) {
	fn := func(words []uint32) bool {
		back := wordsOf(make([]uint32, len(words)), bytesOf(make([]byte, 4*len(words)), words))
		if len(back) != len(words) {
			return false
		}
		for i := range words {
			if back[i] != words[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWordsOfRejectsRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-word-multiple byte slice should panic")
		}
	}()
	wordsOf(make([]uint32, 2), make([]byte, 7))
}

func TestCheckAlign(t *testing.T) {
	// Legal cases must not panic.
	checkAlign(0x1000, 4)
	checkAlign(0x1008, 8)
	for _, c := range []struct {
		addr uint32
		size int
	}{{2, 4}, {4, 8}, {0, 3}, {0, 16}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("checkAlign(%#x, %d) should panic", c.addr, c.size)
				}
			}()
			checkAlign(c.addr, c.size)
		}()
	}
}
