package btb

import (
	"testing"

	"dnc/internal/cache"
	"dnc/internal/isa"
)

func TestTableLookupInsert(t *testing.T) {
	tb := cache.NewTable[int](8, 2)
	if _, ok := tb.Lookup(0x100); ok {
		t.Fatal("hit in empty table")
	}
	tb.Put(0x100, 42)
	v, ok := tb.Lookup(0x100)
	if !ok || v != 42 {
		t.Fatalf("lookup = %d, %v", v, ok)
	}
}

func TestTableLRUWithinSet(t *testing.T) {
	tb := cache.NewTable[int](4, 2) // 2 sets, 2 ways; keys shifted by 2 in setOf
	// Keys mapping to set 0: (key>>2) even.
	k := func(i int) isa.Addr { return isa.Addr(i << 3) } // (i<<3)>>2 = i<<1, always even
	tb.Put(k(1), 1)
	tb.Put(k(2), 2)
	tb.Lookup(k(1)) // protect 1
	evicted, was := tb.Put(k(3), 3)
	if !was || evicted != k(2) {
		t.Fatalf("evicted %#x, want %#x", evicted, k(2))
	}
}

func TestTableUpdate(t *testing.T) {
	tb := cache.NewTable[int](4, 2)
	if tb.Update(0x10, 9) {
		t.Fatal("update of absent key succeeded")
	}
	tb.Put(0x10, 1)
	if !tb.Update(0x10, 9) {
		t.Fatal("update failed")
	}
	if v, _ := tb.Peek(0x10); v != 9 {
		t.Fatalf("value = %d", v)
	}
}

func TestTableInvalidate(t *testing.T) {
	tb := cache.NewTable[int](4, 2)
	tb.Put(0x10, 1)
	if !tb.Invalidate(0x10) || tb.Invalidate(0x10) {
		t.Fatal("invalidate misbehaved")
	}
}

func TestConventionalBTB(t *testing.T) {
	b := New(2048, 4)
	if b.Entries() != 2048 {
		t.Fatalf("entries = %d", b.Entries())
	}
	b.Put(0x1234, Entry{Kind: isa.KindJump, Target: 0x9000})
	e, ok := b.Lookup(0x1234)
	if !ok || e.Target != 0x9000 || e.Kind != isa.KindJump {
		t.Fatalf("entry = %+v, %v", e, ok)
	}
}

func TestPrefetchBuffer(t *testing.T) {
	pb := NewPrefetchBuffer(32, 2)
	brs := []isa.Branch{{Offset: 4, Kind: isa.KindCondBranch, Target: 0x40}}
	pb.Fill(10, brs)
	if !pb.Contains(10) {
		t.Fatal("filled block missing")
	}
	brs[0].Offset = 8 // Fill keeps a copy: the caller's slice is scratch
	got, ok := pb.TakeBlock(10)
	if !ok || len(got) != 1 || got[0].Offset != 4 {
		t.Fatalf("TakeBlock = %+v, %v", got, ok)
	}
	// TakeBlock removes the entry.
	if pb.Contains(10) {
		t.Fatal("entry survived TakeBlock")
	}
	// Empty branch lists are not stored.
	pb.Fill(11, nil)
	if pb.Contains(11) {
		t.Fatal("empty fill stored")
	}
}

func TestBBEntryFallthrough(t *testing.T) {
	e := BBEntry{Size: 24, Kind: isa.KindCondBranch, BranchPC: 0x114, Target: 0x200}
	if e.Fallthrough(0x100) != 0x118 {
		t.Fatalf("fallthrough = %#x", e.Fallthrough(0x100))
	}
}

func TestFootprint(t *testing.T) {
	var f Footprint
	if !f.Empty() {
		t.Fatal("zero footprint not empty")
	}
	f.Set(0)
	f.Set(-2)
	f.Set(3)
	f.Set(100) // out of window, dropped
	f.Set(-5)  // out of window, dropped
	var buf [FootprintBits]isa.BlockID
	blocks := f.AppendBlocks(buf[:0], 10)
	want := []isa.BlockID{8, 10, 13}
	if len(blocks) != len(want) {
		t.Fatalf("blocks = %v, want %v", blocks, want)
	}
	for i := range want {
		if blocks[i] != want[i] {
			t.Fatalf("blocks = %v, want %v", blocks, want)
		}
	}
	// Negative deltas below base are clipped.
	var g Footprint
	g.Set(-2)
	if len(g.AppendBlocks(nil, 1)) != 0 {
		t.Fatal("underflowing block not clipped")
	}
}

func TestShotgunFootprintMissAccounting(t *testing.T) {
	s := NewShotgun(0)
	start := isa.Addr(0x1000)
	bb := BBEntry{Size: 16, Kind: isa.KindCall, BranchPC: 0x100C, Target: 0x2000}

	// A miss is not classified by LookupU (it may be a conditional block);
	// the engine reports it once pre-decoding resolves the branch kind.
	if _, ok := s.LookupU(start); ok {
		t.Fatal("hit in empty U-BTB")
	}
	if s.ULookups != 0 {
		t.Fatalf("unresolved miss counted: %d lookups", s.ULookups)
	}
	s.NoteResolvedUncond()
	if s.UFootprintMiss != 1 || s.ULookups != 1 {
		t.Fatalf("miss accounting: %d/%d", s.UFootprintMiss, s.ULookups)
	}

	// Prefilled entry hits but still counts a footprint miss.
	s.PrefillU(start, bb)
	e, ok := s.LookupU(start)
	if !ok || e.HasFP {
		t.Fatalf("prefilled entry = %+v, %v", e, ok)
	}
	if s.UFootprintMiss != 2 {
		t.Fatalf("footprint misses = %d, want 2", s.UFootprintMiss)
	}

	// Committed entry has footprints; no further footprint misses.
	var fp Footprint
	fp.Set(0)
	s.CommitU(start, UBBEntry{BB: bb, CallFP: fp})
	e, ok = s.LookupU(start)
	if !ok || !e.HasFP {
		t.Fatalf("committed entry = %+v, %v", e, ok)
	}
	if s.UFootprintMiss != 2 || s.ULookups != 3 {
		t.Fatalf("footprint misses = %d of %d lookups after commit, want 2 of 3", s.UFootprintMiss, s.ULookups)
	}
}

func TestPrefillDoesNotDowngrade(t *testing.T) {
	s := NewShotgun(0)
	start := isa.Addr(0x100)
	bb := BBEntry{Size: 8, Kind: isa.KindJump, BranchPC: 0x104, Target: 0x900}
	var fp Footprint
	fp.Set(1)
	s.CommitU(start, UBBEntry{BB: bb, CallFP: fp})
	s.PrefillU(start, bb)
	e, _ := s.LookupU(start)
	if !e.HasFP {
		t.Fatal("prefill downgraded a committed entry")
	}
}

func TestUpdateFootprints(t *testing.T) {
	s := NewShotgun(0)
	start := isa.Addr(0x200)
	bb := BBEntry{Size: 8, Kind: isa.KindCall, BranchPC: 0x204, Target: 0x3000}
	s.PrefillU(start, bb)
	var call, ret Footprint
	call.Set(0)
	call.Set(2)
	ret.Set(1)
	s.UpdateFootprints(start, &call, &ret)
	e, ok := s.U.Peek(start)
	if !ok || !e.HasFP || e.CallFP != call || e.RetFP != ret {
		t.Fatalf("footprints not merged: %+v", e)
	}
	// Updating a non-existent entry is a no-op.
	s.UpdateFootprints(0x999000, &call, nil)
}

func TestScaledShotgunConfig(t *testing.T) {
	half, full := NewShotgun(50), NewShotgun(0)
	if full.U.Entries() != 1536 || full.C.Entries() != 128 || full.RIB.Entries() != 512 {
		t.Fatalf("percent 0 built %d/%d/%d entries, want the paper's 1536/128/512",
			full.U.Entries(), full.C.Entries(), full.RIB.Entries())
	}
	if half.U.Entries() >= full.U.Entries() {
		t.Fatalf("half config U entries = %d", half.U.Entries())
	}
	// Table construction must not panic.
	NewShotgun(12)
	NewShotgun(200)
}

// TestTablePeekLeavesRecency: a Peek of the set's LRU entry does not
// protect it, so a full set still evicts it next, where a Lookup would.
func TestTablePeekLeavesRecency(t *testing.T) {
	k := func(i int) isa.Addr { return isa.Addr(i << 3) } // all in set 0
	for _, tc := range []struct {
		name    string
		touch   func(*cache.Table[isa.Addr, int], isa.Addr) (int, bool)
		evicted isa.Addr
	}{
		{"peek", (*cache.Table[isa.Addr, int]).Peek, k(1)},
		{"lookup", (*cache.Table[isa.Addr, int]).Lookup, k(2)},
	} {
		tb := cache.NewTable[int](4, 2) // 2 sets, 2 ways
		tb.Put(k(1), 1)
		tb.Put(k(2), 2)
		if v, ok := tc.touch(tb, k(1)); !ok || v != 1 {
			t.Fatalf("%s of a resident key = %d, %v", tc.name, v, ok)
		}
		if got, was := tb.Put(k(3), 3); !was || got != tc.evicted {
			t.Fatalf("after a %s of %#x the full set evicted %#x, want %#x", tc.name, k(1), got, tc.evicted)
		}
	}
}

func TestTableBadGeometryPanics(t *testing.T) {
	for _, g := range []struct{ e, w int }{{0, 1}, {7, 2}, {12, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %v accepted", g)
				}
			}()
			cache.NewTable[int](g.e, g.w)
		}()
	}
}

func TestBBBTBRoundTrip(t *testing.T) {
	b := NewBBBTB(64, 2)
	e := BBEntry{Size: 20, Kind: isa.KindCall, BranchPC: 0x110, Target: 0x900}
	b.Put(0x100, e)
	got, ok := b.Lookup(0x100)
	if !ok || got != e {
		t.Fatalf("lookup = %+v, %v", got, ok)
	}
}

func TestPrefetchBufferCapacity(t *testing.T) {
	pb := NewPrefetchBuffer(2, 1) // 2 sets, 1 way
	br := []isa.Branch{{Offset: 0, Kind: isa.KindJump, Target: 1}}
	// Two blocks mapping to the same set displace each other.
	var inSameSet []isa.BlockID
	for b := isa.BlockID(0); len(inSameSet) < 2; b++ {
		if (uint64(isa.BlockBase(b))>>2)&1 == 0 {
			inSameSet = append(inSameSet, b)
		}
	}
	pb.Fill(inSameSet[0], br)
	pb.Fill(inSameSet[1], br)
	if pb.Contains(inSameSet[0]) {
		t.Fatal("1-way set kept both blocks")
	}
	if !pb.Contains(inSameSet[1]) {
		t.Fatal("newest fill missing")
	}
}
