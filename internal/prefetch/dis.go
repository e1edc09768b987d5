package prefetch

import (
	"math/bits"

	"dnc/internal/isa"
)

// DisTable is the Dis prefetcher's discontinuity table: direct-mapped,
// partially tagged, one entry per block recording the offset of the branch
// instruction that last caused a discontinuity miss out of that block
// (Section V.B). Storing the branch offset instead of the 46+ bit target is
// what makes the table small: the target is recovered by pre-decoding.
type DisTable struct {
	// pages holds the entries, disPage to a page, each allocated by the
	// first Record into it; a nil page reads as invalid entries, so an
	// unlimited table costs memory only where it records.
	pages   []*[disPage]disEntry
	mask    uint64
	tagBits uint
	n       int

	// Conflicts counts lookups that matched the index but failed the tag.
	Conflicts uint64
}

// disPage is the entries of one DisTable page: the paper's whole table.
const (
	disPageBits = 12
	disPage     = 1 << disPageBits
)

type disEntry struct {
	tag    uint16
	offset uint8
	valid  bool
}

// NewDisTable returns a table with the given entries (power of two; 0 means
// unlimited) and partial-tag width in bits (0 = tagless, 16+ treated as a
// full tag for the Figure 12 study).
func NewDisTable(entries int, tagBits uint) *DisTable {
	if entries == 0 {
		entries = 1 << 26
		if tagBits != 0 {
			tagBits = 16
		}
	}
	if entries&(entries-1) != 0 {
		panic("prefetch: DisTable entries must be a power of two")
	}
	return &DisTable{
		pages:   make([]*[disPage]disEntry, (entries+disPage-1)/disPage),
		mask:    uint64(entries - 1),
		tagBits: tagBits,
		n:       entries,
	}
}

// Entries returns the capacity.
func (t *DisTable) Entries() int { return t.n }

func (t *DisTable) idx(b isa.BlockID) uint64 { return uint64(b) & t.mask }

func (t *DisTable) tagOf(b isa.BlockID) uint16 {
	if t.tagBits == 0 {
		return 0
	}
	shift := uint(bits.TrailingZeros64(t.mask + 1))
	return uint16((uint64(b) >> shift) & ((1 << t.tagBits) - 1))
}

// Record stores the byte offset of the discontinuity branch in block b.
func (t *DisTable) Record(b isa.BlockID, offset uint8) {
	i := t.idx(b)
	p := t.pages[i>>disPageBits]
	if p == nil {
		p = new([disPage]disEntry)
		t.pages[i>>disPageBits] = p
	}
	p[i&(disPage-1)] = disEntry{tag: t.tagOf(b), offset: offset, valid: true}
}

// Lookup returns the recorded branch offset for block b. With partial tags a
// conflicting entry may alias (tagless tables do so freely — the
// overprediction of Figure 12); the tag check filters most aliases.
func (t *DisTable) Lookup(b isa.BlockID) (uint8, bool) {
	i := t.idx(b)
	p := t.pages[i>>disPageBits]
	if p == nil || !p[i&(disPage-1)].valid {
		return 0, false
	}
	e := &p[i&(disPage-1)]
	if e.tag != t.tagOf(b) {
		t.Conflicts++
		return 0, false
	}
	return e.offset, true
}

// EntryBits returns the storage per entry: the tag plus the offset (4-bit
// instruction offset for fixed-length ISAs, 6-bit byte offset for
// variable-length, Section V.D).
func (t *DisTable) EntryBits(mode isa.Mode) int {
	off := 4
	if mode == isa.Variable {
		off = 6
	}
	return int(t.tagBits) + off
}

// Dis is the standalone discontinuity prefetcher design: it records the
// branch responsible for each discontinuity miss and, on every fetch or
// prefetch of a block, replays the recorded branch through the pre-decoder
// to prefetch its target. Like SN4L it prefetches directly into the cache.
type Dis struct {
	Base
	*ConvBTB
	tab *DisTable

	// pending holds blocks whose replay waits for their fill to arrive.
	pending map[isa.BlockID]struct{}

	// Recorded counts table writes; Replay aggregates replay outcomes.
	Recorded uint64
	Replay   ReplayStats
}

// NewDis returns a standalone Dis design (paper: 4K entries, 4-bit tags).
func NewDis(entries int, tagBits uint, btbEntries int) *Dis {
	return &Dis{
		ConvBTB: NewConvBTB(btbEntries, 4),
		tab:     NewDisTable(entries, tagBits),
		pending: make(map[isa.BlockID]struct{}),
	}
}

// Name implements Design.
func (*Dis) Name() string { return "Dis" }

// RecordMiss implements the recording rule: on a cache miss, decode the last
// two demanded instructions; if one is a branch, record its offset under the
// block containing it. (Two instructions because of the SPARC delay slot.)
func recordMiss(env Env, tab *DisTable, last2 [2]isa.Addr, recorded *uint64) {
	for _, pc := range last2 {
		if pc == 0 {
			continue
		}
		blk := isa.BlockOf(pc)
		off := uint8(isa.ByteOffset(pc))
		if br, ok := env.DecodeBranchAt(blk, off); ok {
			tab.Record(blk, br.Offset)
			*recorded++
			return
		}
	}
}

// ReplayStats counts the outcomes of Dis replay attempts; the NotBranch
// fraction of table hits quantifies the overprediction of tagless and
// partially tagged tables (Figure 12).
type ReplayStats struct {
	Attempts  uint64 // replay invocations
	TableHits uint64 // DisTable lookups that returned an offset
	NotBranch uint64 // stored offset decoded to a non-branch (alias/stale)
	NoTarget  uint64 // return/indirect whose target the BTB did not know
	Replayed  uint64 // successful target extractions
}

// Overprediction returns the fraction of table hits that replayed garbage.
func (s ReplayStats) Overprediction() float64 {
	if s.TableHits == 0 {
		return 0
	}
	return float64(s.NotBranch) / float64(s.TableHits)
}

// replayDis looks up the block's recorded discontinuity and extracts the
// branch target through the pre-decoder. It returns the target block when a
// prefetchable discontinuity was found.
func replayDis(env Env, tab *DisTable, btb *ConvBTB, b isa.BlockID, st *ReplayStats) (isa.BlockID, bool) {
	st.Attempts++
	off, ok := tab.Lookup(b)
	if !ok {
		return 0, false
	}
	st.TableHits++
	br, ok := env.DecodeBranchAt(b, off)
	if !ok {
		// Stale or aliased entry: the decoded bytes are not a branch.
		st.NotBranch++
		return 0, false
	}
	target := br.Target
	if !br.Kind.HasEncodedTarget() {
		// Return/indirect: consult the BTB; without it, no prefetch.
		pc := isa.BlockBase(b) + isa.Addr(br.Offset)
		t, hit := btb.BTB.Peek(pc)
		if !hit {
			st.NoTarget++
			return 0, false
		}
		target = t.Target
	}
	st.Replayed++
	return isa.BlockOf(target), true
}

// OnDemand implements Design.
func (d *Dis) OnDemand(b isa.BlockID, hit bool, last2 [2]isa.Addr) {
	if !hit {
		recordMiss(d.E(), d.tab, last2, &d.Recorded)
		// Replay must wait for the block's bytes.
		d.pending[b] = struct{}{}
		return
	}
	d.tryPrefetchTarget(b)
}

// OnFill implements Design.
func (d *Dis) OnFill(b isa.BlockID, prefetch bool) {
	if _, ok := d.pending[b]; ok {
		delete(d.pending, b)
	}
	d.tryPrefetchTarget(b)
}

func (d *Dis) tryPrefetchTarget(b isa.BlockID) {
	env := d.E()
	tb, ok := replayDis(env, d.tab, d.ConvBTB, b, &d.Replay)
	if !ok {
		return
	}
	if env.L1iContains(tb) || env.InFlight(tb) {
		return
	}
	env.IssuePrefetch(tb)
}

// StorageBits implements Design.
func (d *Dis) StorageBits() int { return d.tab.Entries() * d.tab.EntryBits(isa.Fixed) }
