package cache

import (
	"testing"
	"testing/quick"

	"dnc/internal/isa"
)

// TestGeometry: 32 KB 8-way is 64 sets indexed by block number. Blocks 64
// apart share a set, so the ninth evicts the first; blocks 0..511 fill
// every way of every set without an eviction.
func TestGeometry(t *testing.T) {
	c := New(32<<10, 8)
	for b := isa.BlockID(0); b < 512; b++ {
		if _, _, _, evicted := c.Insert(b); evicted {
			t.Fatalf("block %d evicted a line from a cache of 512", b)
		}
	}
	c.Reset()
	for i := isa.BlockID(0); i < 8; i++ {
		c.Insert(5 + 64*i)
	}
	if _, victim, _, evicted := c.Insert(5 + 64*8); !evicted || victim != 5 {
		t.Fatalf("ninth block of set 5 evicted %d (%v), want block 5", victim, evicted)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two sets")
		}
	}()
	New(3*64*8, 8) // 3 sets
}

func TestHitMissEvict(t *testing.T) {
	c := New(2*64*2, 2) // 2 sets, 2 ways
	if c.Access(0) != nil {
		t.Fatal("hit in empty cache")
	}
	c.Insert(0) // set 0
	c.Insert(2) // set 0
	if c.Access(0) == nil || c.Access(2) == nil {
		t.Fatal("expected hits")
	}
	// Set 0 is full; inserting block 4 must evict LRU (block 0 was accessed
	// before block 2, so 0 is LRU... after Access(0) then Access(2), LRU is 0).
	_, victim, _, evicted := c.Insert(4)
	if !evicted || victim != 0 {
		t.Fatalf("evicted %d (%v), want block 0", victim, evicted)
	}
	if c.Contains(0) {
		t.Fatal("block 0 still resident after eviction")
	}
	if !c.Contains(2) || !c.Contains(4) {
		t.Fatal("resident blocks missing")
	}
}

func TestLRUOrder(t *testing.T) {
	c := New(1*64*4, 4) // 1 set, 4 ways
	for b := isa.BlockID(0); b < 4; b++ {
		c.Insert(b)
	}
	c.Access(0) // 0 becomes MRU; LRU is now 1
	_, victim, _, evicted := c.Insert(10)
	if !evicted || victim != 1 {
		t.Fatalf("evicted %d (%v), want block 1", victim, evicted)
	}
}

func TestInsertResidentIsTouch(t *testing.T) {
	c := New(1*64*2, 2)
	l, _, _, _ := c.Insert(0)
	l.Flags, l.Aux = FlagPrefetched, 0xA
	c.Insert(1)
	l, victim, _, evicted := c.Insert(0) // refill of resident block
	if evicted {
		t.Fatalf("refill evicted %d", victim)
	}
	if l != c.Line(0) || l.Flags != FlagPrefetched || l.Aux != 0xA {
		t.Fatalf("refill returned %+v, want block 0's line with its metadata kept", *l)
	}
	// 0 is MRU now, so inserting 2 evicts 1.
	_, victim, _, evicted = c.Insert(2)
	if !evicted || victim != 1 {
		t.Fatalf("evicted %d (%v), want block 1", victim, evicted)
	}
}

func TestLineMetadata(t *testing.T) {
	c := New(64*4, 4)
	l, _, _, _ := c.Insert(7)
	l.Flags |= FlagPrefetched
	l.Aux = 0xB
	got := c.Line(7)
	if got == nil || got.Flags&FlagPrefetched == 0 || got.Aux != 0xB {
		t.Fatalf("metadata lost: %+v", got)
	}
	// Eviction carries metadata out.
	c1 := New(64, 1)
	l1, _, _, _ := c1.Insert(5)
	l1.Flags = FlagPrefetched
	l1.Aux = 3
	_, victim, old, evicted := c1.Insert(6)
	if !evicted || victim != 5 || old.Flags != FlagPrefetched || old.Aux != 3 {
		t.Fatalf("evicted metadata wrong: %d %+v (%v)", victim, old, evicted)
	}
	// The new line starts clean.
	if l := c1.Line(6); l == nil || *l != (Line{}) {
		t.Fatalf("filled line = %+v, want a clean line", l)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(64*2, 2)
	c.Insert(3)
	if !c.Invalidate(3) || c.Contains(3) {
		t.Fatal("invalidate failed")
	}
	if c.Invalidate(3) {
		t.Fatal("double invalidate reported true")
	}
}

func TestContainsDoesNotTouchLRU(t *testing.T) {
	c := New(1*64*2, 2)
	c.Insert(0)
	c.Insert(1) // LRU: 0
	c.Contains(0)
	c.Line(0)
	_, victim, _, evicted := c.Insert(2)
	if !evicted || victim != 0 {
		t.Fatalf("Contains disturbed LRU: evicted %d (%v), want 0", victim, evicted)
	}
}

// Property: the cache never holds more distinct blocks than its capacity,
// and a just-inserted block is always resident.
func TestQuickCapacityInvariant(t *testing.T) {
	f := func(blocks []uint16) bool {
		c := New(4*64*2, 2) // 8 lines
		for _, raw := range blocks {
			b := isa.BlockID(raw)
			c.Insert(b)
			if !c.Contains(b) {
				return false
			}
		}
		count := 0
		for b := isa.BlockID(0); b < 1<<16; b++ {
			if c.Contains(b) {
				count++
			}
		}
		return count <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMSHRFile(t *testing.T) {
	f := NewMSHRFile(2)
	m := f.Alloc(1, 10, 50, true)
	if m == nil || f.Len() != 1 {
		t.Fatal("alloc failed")
	}
	if m.Latency() != 40 {
		t.Fatalf("latency = %d", m.Latency())
	}
	if f.Alloc(1, 11, 51, false) != nil {
		t.Fatal("duplicate alloc succeeded")
	}
	if f.Alloc(2, 10, 60, false) == nil {
		t.Fatal("second alloc failed")
	}
	if !f.Full() || f.Alloc(3, 10, 60, false) != nil {
		t.Fatal("capacity not enforced")
	}
	got, ok := f.Lookup(1)
	if !ok || got != m {
		t.Fatal("lookup failed")
	}
	ready := f.Ready(55)
	if len(ready) != 1 || ready[0].Block != 1 {
		t.Fatalf("Ready(55) = %+v", ready)
	}
	f.Free(1)
	if f.Len() != 1 || f.Full() {
		t.Fatal("free failed")
	}
	f.Reset()
	if f.Len() != 0 {
		t.Fatal("reset failed")
	}
}

func TestReset(t *testing.T) {
	c := New(64*4, 4)
	l, _, _, _ := c.Insert(9)
	l.Flags = FlagInstruction
	c.Reset()
	if c.Contains(9) {
		t.Fatal("reset left contents")
	}
	if c.Access(9) != nil {
		t.Fatal("access after reset hit")
	}
}

// TestLineBlock: the line Insert returns is the block's own — Line,
// Access and a refill all hand back the same line, and a write through it
// reaches the victim report.
func TestLineBlock(t *testing.T) {
	c := New(64*2, 2)
	l, _, _, _ := c.Insert(77)
	if c.Line(77) != l || c.Access(77) != l {
		t.Fatal("Line and Access do not return the inserted line")
	}
	if r, _, _, _ := c.Insert(77); r != l {
		t.Fatal("refill returned another line")
	}
	l.Aux = 7
	c.Insert(78)
	if _, victim, old, evicted := c.Insert(79); !evicted || victim != 77 || old.Aux != 7 {
		t.Fatalf("victim %d %+v (%v), want block 77 with Aux 7", victim, old, evicted)
	}
}

func TestMSHRAllocDemandBypassesCapacity(t *testing.T) {
	f := NewMSHRFile(1)
	if f.Alloc(1, 0, 10, true) == nil {
		t.Fatal("first alloc failed")
	}
	if !f.Full() {
		t.Fatal("file should be full")
	}
	// Demands reserve their own slot.
	m := f.AllocDemand(2, 0, 10)
	if m == nil || m.Prefetch {
		t.Fatalf("demand alloc failed: %+v", m)
	}
	// Duplicates still refused.
	if f.AllocDemand(2, 1, 11) != nil {
		t.Fatal("duplicate demand alloc accepted")
	}
}

// TestMSHRSetReady: a re-keyed fill arrives at its new cycle, not its old
// one, and the earliest-ready minimum and the audit follow it.
func TestMSHRSetReady(t *testing.T) {
	f := NewMSHRFile(4)
	f.Alloc(1, 10, 30, true)
	f.AllocDemand(2, 12, 40)
	if er, _ := f.EarliestReady(); er != 30 {
		t.Fatalf("EarliestReady = %d, want 30", er)
	}
	f.SetReady(1, 45)
	f.SetReady(9, 50) // no entry: nothing happens
	if er, _ := f.EarliestReady(); er != 40 {
		t.Fatalf("after SetReady, EarliestReady = %d, want 40", er)
	}
	if got := f.Ready(39); len(got) != 0 {
		t.Fatalf("Ready(39) = %+v, want nothing", got)
	}
	if got := f.Ready(40); len(got) != 1 || got[0].Block != 2 {
		t.Fatalf("Ready(40) = %+v, want block 2", got)
	}
	f.Free(2)
	if errs := f.Audit(41); len(errs) > 0 {
		t.Fatalf("audit: %v", errs)
	}
	got := f.Ready(45)
	if len(got) != 1 || got[0].Block != 1 || got[0].Latency() != 35 {
		t.Fatalf("Ready(45) = %+v, want block 1 with latency 35", got)
	}
}
