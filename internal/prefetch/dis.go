package prefetch

import (
	"math/bits"

	"dnc/internal/isa"
)

// disTable is the Dis prefetcher's discontinuity table: direct-mapped,
// partially tagged, one entry per block recording the offset of the branch
// instruction that last caused a discontinuity miss out of that block
// (Section V.B). Storing the branch offset instead of the 46+ bit target is
// what makes the table small: the target is recovered by pre-decoding.
type disTable = direct[uint8]

// newDisTable returns a table with the given entries (power of two; 0 means
// unlimited) and partial-tag width in bits (0 = tagless, 16+ treated as a
// full tag for the Figure 12 study), the tag taken above the index bits.
func newDisTable(entries int, tagBits uint) *disTable {
	if entries == 0 {
		entries = 1 << 26
		if tagBits != 0 {
			tagBits = 16
		}
	}
	return newDirect[uint8]("DisTable", entries, uint(bits.TrailingZeros(uint(entries))), tagBits)
}

// disTableBits returns the table's storage: per entry the tag plus a 4-bit
// instruction offset. That is the fixed-length encoding Table II counts;
// Section V.D's variable-length byte offset would take 6 bits.
func disTableBits(t *disTable) int { return t.entries() * (int(t.bits) + 4) }

// Dis is the standalone discontinuity prefetcher design: it records the
// branch responsible for each discontinuity miss and, on every fetch or
// prefetch of a block, replays the recorded branch through the pre-decoder
// to prefetch its target. Like SN4L it prefetches directly into the cache.
type Dis struct {
	Base
	*ConvBTB
	tab *disTable
}

// NewDis returns a standalone Dis design (paper: 4K entries, 4-bit tags).
func NewDis(entries int, tagBits uint, btbEntries int) *Dis {
	return &Dis{
		ConvBTB: NewConvBTB(btbEntries, 4),
		tab:     newDisTable(entries, tagBits),
	}
}

// Name implements Design.
func (*Dis) Name() string { return "Dis" }

// RecordMiss implements the recording rule: on a cache miss, decode the last
// two demanded instructions; if one is a branch, record its offset under the
// block containing it. (Two instructions because of the SPARC delay slot.)
func recordMiss(env Env, tab *disTable, last2 [2]isa.Addr) {
	for _, pc := range last2 {
		if pc == 0 {
			continue
		}
		blk := isa.BlockOf(pc)
		off := uint8(isa.ByteOffset(pc))
		if br, ok := env.DecodeBranchAt(blk, off); ok {
			*tab.write(uint64(blk)) = br.Offset
			return
		}
	}
}

// replayStats counts the Dis replay outcomes the Figure 12 study reads
// (Probes): the NotBranch fraction of table hits is the overprediction of
// tagless and partially tagged tables.
type replayStats struct {
	TableHits uint64 // DisTable lookups that returned an offset
	NotBranch uint64 // stored offset decoded to a non-branch (alias/stale)
}

// replayDis looks up the block's recorded discontinuity and extracts the
// branch target through the pre-decoder. It returns the target block when a
// prefetchable discontinuity was found, and counts the outcome in st unless
// st is nil.
func replayDis(env Env, tab *disTable, btb *ConvBTB, b isa.BlockID, st *replayStats) (isa.BlockID, bool) {
	off := tab.lookup(uint64(b))
	if off == nil {
		return 0, false
	}
	if st != nil {
		st.TableHits++
	}
	br, ok := env.DecodeBranchAt(b, *off)
	if !ok {
		// Stale or aliased entry: the decoded bytes are not a branch.
		if st != nil {
			st.NotBranch++
		}
		return 0, false
	}
	target := br.Target
	if !br.Kind.HasEncodedTarget() {
		// Return/indirect: consult the BTB; without it, no prefetch.
		pc := isa.BlockBase(b) + isa.Addr(br.Offset)
		t, hit := btb.BTB.Peek(pc)
		if !hit {
			return 0, false
		}
		target = t.Target
	}
	return isa.BlockOf(target), true
}

// OnDemand implements Design: a miss records its discontinuity, and its
// replay waits for the block's bytes (OnFill); a hit replays at once.
func (d *Dis) OnDemand(b isa.BlockID, hit bool, last2 [2]isa.Addr) {
	if !hit {
		recordMiss(d.E(), d.tab, last2)
		return
	}
	d.tryPrefetchTarget(b)
}

// OnFill implements Design.
func (d *Dis) OnFill(b isa.BlockID, prefetch bool) { d.tryPrefetchTarget(b) }

func (d *Dis) tryPrefetchTarget(b isa.BlockID) {
	env := d.E()
	tb, ok := replayDis(env, d.tab, d.ConvBTB, b, nil)
	if !ok {
		return
	}
	prefetchAbsent(env, tb)
}

// StorageBits implements Design.
func (d *Dis) StorageBits() int { return disTableBits(d.tab) }
