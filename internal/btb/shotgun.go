package btb

import (
	"dnc/internal/cache"
	"dnc/internal/isa"
)

// Shotgun (Kumar et al., ASPLOS 2018) splits a basic-block-oriented BTB
// into three structures: most of the storage goes to basic blocks ending in
// unconditional branches (U-BTB), whose entries carry spatial footprints of
// the blocks touched around the branch target (call footprint) and around
// the return site (return footprint); basic blocks ending in conditional
// branches get a small C-BTB that is aggressively prefilled by pre-decoding;
// returns get a small RIB. Prefetching is driven by the footprints rather
// than by walking conditional branches one at a time.

// Footprint window: 8 blocks starting two blocks before the region entry.
const (
	FootprintBefore = 2
	FootprintBits   = 8
)

// Footprint is a bit vector over the blocks [base-FootprintBefore,
// base-FootprintBefore+FootprintBits) around a region entry block.
type Footprint struct {
	Bits uint8
}

// Set marks the block at the given delta from the region entry block.
// Deltas outside the window are dropped.
func (f *Footprint) Set(delta int) {
	i := delta + FootprintBefore
	if i >= 0 && i < FootprintBits {
		f.Bits |= 1 << uint(i)
	}
}

// Empty reports whether no blocks are recorded.
func (f Footprint) Empty() bool { return f.Bits == 0 }

// AppendBlocks appends the footprint's blocks around base to dst.
func (f Footprint) AppendBlocks(dst []isa.BlockID, base isa.BlockID) []isa.BlockID {
	return AppendRegion(dst, base, uint64(f.Bits), FootprintBefore)
}

// AppendRegion expands a spatial bit vector into dst, in ascending order:
// bit i stands for block base-before+i, and blocks that would fall below
// block zero are skipped. It is the one expansion behind Shotgun's
// footprints and PIF's regions; callers pass a slice of an array they own,
// so expanding allocates nothing.
func AppendRegion(dst []isa.BlockID, base isa.BlockID, bits uint64, before int) []isa.BlockID {
	for i := 0; bits>>i != 0; i++ {
		if bits&(1<<i) == 0 || (i < before && isa.BlockID(before-i) > base) {
			continue
		}
		dst = append(dst, base+isa.BlockID(i)-isa.BlockID(before))
	}
	return dst
}

// UBBEntry is a U-BTB payload: a basic block ending in an unconditional
// branch, plus the spatial footprints Shotgun prefetches from.
type UBBEntry struct {
	BB UBBInfo
	// CallFP records blocks touched around the branch target; RetFP records
	// blocks touched around the return site (for calls).
	CallFP Footprint
	RetFP  Footprint
	// HasFP distinguishes entries whose footprints were constructed from
	// the retired stream from entries prefilled by pre-decoding, whose
	// footprints cannot be recovered (the paper's Section III observation:
	// BTB prefilling cannot fill footprints).
	HasFP bool
}

// UBBInfo aliases BBEntry for readability.
type UBBInfo = BBEntry

// ShotgunBTB bundles the three structures. All are keyed by basic-block
// start address.
type ShotgunBTB struct {
	U   *cache.Table[isa.Addr, UBBEntry]
	C   *BBBTB
	RIB *BBBTB

	// Footprint accounting for Figure 1: a footprint miss is a U-BTB
	// lookup that either misses entirely or hits an entry without
	// constructed footprints.
	ULookups       uint64
	UFootprintMiss uint64
}

// The paper's three tables: 1.5K U-BTB, 128 C-BTB, 512 RIB.
const (
	shotgunUEntries, shotgunUWays = 1536, 6
	shotgunCEntries, shotgunCWays = 128, 4
	shotgunREntries, shotgunRWays = 512, 4
)

// NewShotgun builds the split BTB with every table scaled to percent of the
// paper's size (0 = 100; the Figure 18 BTB size sweep). A scaled table
// rounds up to its ways times a power of two sets, so its geometry stays
// legal.
func NewShotgun(percent int) *ShotgunBTB {
	if percent == 0 {
		percent = 100
	}
	scale := func(entries, ways int) int {
		v := entries * percent / 100
		if v < ways {
			v = ways
		}
		sets := 1
		for sets*ways < v {
			sets <<= 1
		}
		return sets * ways
	}
	return &ShotgunBTB{
		U:   cache.NewTable[UBBEntry](scale(shotgunUEntries, shotgunUWays), shotgunUWays),
		C:   NewBBBTB(scale(shotgunCEntries, shotgunCWays), shotgunCWays),
		RIB: NewBBBTB(scale(shotgunREntries, shotgunRWays), shotgunRWays),
	}
}

// LookupU looks up a basic block ending in an unconditional branch. Hits
// are counted toward the Figure 1 footprint-miss ratio (a hit without
// constructed footprints is a footprint miss). Misses cannot be classified
// here — the engine looks up every unknown basic block in all three
// structures, so a miss may simply be a conditional block absent from the
// C-BTB; the engine calls NoteResolvedUncond once pre-decoding reveals the
// block really ends in an unconditional branch.
func (s *ShotgunBTB) LookupU(start isa.Addr) (UBBEntry, bool) {
	e, ok := s.U.Lookup(start)
	if !ok {
		return UBBEntry{}, false
	}
	s.ULookups++
	if !e.HasFP {
		s.UFootprintMiss++
	}
	return e, true
}

// NoteResolvedUncond records that a U-BTB lookup missed for a basic block
// that pre-decoding resolved to an unconditional branch: an entry miss and
// therefore also a footprint miss (Figure 1).
func (s *ShotgunBTB) NoteResolvedUncond() {
	s.ULookups++
	s.UFootprintMiss++
}

// CommitU installs or refreshes a U-BTB entry from the retired instruction
// stream, merging any footprints already present. HasFP is set once the
// entry carries constructed footprints.
func (s *ShotgunBTB) CommitU(start isa.Addr, e UBBEntry) {
	if old, ok := s.U.Peek(start); ok {
		e.CallFP.Bits |= old.CallFP.Bits
		e.RetFP.Bits |= old.RetFP.Bits
		e.HasFP = e.HasFP || old.HasFP
	}
	e.HasFP = e.HasFP || !e.CallFP.Empty() || !e.RetFP.Empty()
	s.U.Put(start, e)
}

// UpdateFootprints merges footprints into an existing entry without
// touching recency (region recorder write-back).
func (s *ShotgunBTB) UpdateFootprints(start isa.Addr, call, ret *Footprint) {
	e, ok := s.U.Peek(start)
	if !ok {
		return
	}
	if call != nil {
		e.CallFP.Bits |= call.Bits
	}
	if ret != nil {
		e.RetFP.Bits |= ret.Bits
	}
	e.HasFP = true
	s.U.Update(start, e)
}

// PrefillU installs a pre-decoded U-BTB entry; its footprints are unknown.
func (s *ShotgunBTB) PrefillU(start isa.Addr, bb BBEntry) {
	if _, ok := s.U.Peek(start); ok {
		return // never downgrade a constructed entry
	}
	s.U.Put(start, UBBEntry{BB: bb})
}
