package prefetch

import (
	"dnc/internal/cache"
	"dnc/internal/isa"
)

// SeqTable is SN4L's per-block usefulness predictor: a direct-mapped,
// tagless, 1-bit-per-entry table. Entry A holds the sequential-prefetch
// status of the block hashing to A; the four subsequent blocks of A live in
// entries A+1..A+4 (Section V.A). All entries start set, so every block is
// prefetched the first time.
type SeqTable struct {
	// pages holds the bits, seqPage words to a page, each allocated by the
	// first Reset into it; a nil page reads as all set, so an unlimited
	// table costs memory only where it learns. words is the table's length
	// in words, one past those the entries need.
	pages []*[seqPage]uint64
	words int
	mask  uint64
	n     int
}

// seqPage is the words of one SeqTable page (32K entries).
const (
	seqPageBits = 9
	seqPage     = 1 << seqPageBits
)

// NewSeqTable returns a table with the given entry count (power of two).
// Pass 0 entries for an unlimited table (one dedicated entry per block, the
// reference point of Figure 11).
func NewSeqTable(entries int) *SeqTable {
	if entries == 0 {
		// Unlimited: a large sparse space; 2^26 blocks (4 GiB of code) is
		// far beyond any generated footprint and keeps indices unique.
		entries = 1 << 26
	}
	if entries&(entries-1) != 0 {
		panic("prefetch: SeqTable entries must be a power of two")
	}
	words := entries/64 + 1
	return &SeqTable{pages: make([]*[seqPage]uint64, (words+seqPage-1)/seqPage), words: words,
		mask: uint64(entries - 1), n: entries}
}

// newSeqPage returns a page with every entry set.
func newSeqPage() *[seqPage]uint64 {
	p := new([seqPage]uint64)
	for i := range p {
		p[i] = ^uint64(0)
	}
	return p
}

// Entries returns the table capacity.
func (t *SeqTable) Entries() int { return t.n }

func (t *SeqTable) idx(b isa.BlockID) uint64 { return uint64(b) & t.mask }

// Get returns the prefetch status of block b.
func (t *SeqTable) Get(b isa.BlockID) bool {
	i := t.idx(b)
	p := t.pages[i>>(6+seqPageBits)]
	return p == nil || p[i>>6&(seqPage-1)]&(1<<(i&63)) != 0
}

// Set marks block b useful to prefetch.
func (t *SeqTable) Set(b isa.BlockID) {
	i := t.idx(b)
	if p := t.pages[i>>(6+seqPageBits)]; p != nil {
		p[i>>6&(seqPage-1)] |= 1 << (i & 63)
	}
}

// Reset marks block b not useful.
func (t *SeqTable) Reset(b isa.BlockID) {
	i := t.idx(b)
	p := t.pages[i>>(6+seqPageBits)]
	if p == nil {
		p = newSeqPage()
		t.pages[i>>(6+seqPageBits)] = p
	}
	p[i>>6&(seqPage-1)] &^= 1 << (i & 63)
}

// Nibble returns the packed status of b+1..b+4 (bit i-1 for block b+i) —
// the 4-bit local prefetch status cached with each L1i line to avoid
// SeqTable lookups on every access.
func (t *SeqTable) Nibble(b isa.BlockID) uint8 {
	var n uint8
	for i := 1; i <= 4; i++ {
		if t.Get(b + isa.BlockID(i)) {
			n |= 1 << (i - 1)
		}
	}
	return n
}

// onDemand is the training rule SN4L and the proactive design share: a miss
// marks b useful, and so does a demand hit consuming a prefetch (clearing
// its flag, and counting it in useful when that is non-nil). It returns b's
// line, nil on a miss.
func (t *SeqTable) onDemand(env Env, b isa.BlockID, hit bool, useful *uint64) (line *cache.Line) {
	if hit {
		line = env.L1iLine(b)
		if line.Flags&cache.FlagPrefetched == 0 {
			return line
		}
		line.Flags &^= cache.FlagPrefetched
		if useful != nil {
			*useful++
		}
	}
	t.Set(b)
	t.refreshLocal(env, b)
	return line
}

// onFill latches b's local prefetch status beside its line, if resident.
func (t *SeqTable) onFill(env Env, b isa.BlockID) *cache.Line {
	line := env.L1iLine(b)
	if line != nil {
		line.Aux = t.Nibble(b)
	}
	return line
}

// onEvict marks a block not useful when its prefetched line is evicted
// without a demand hit.
func (t *SeqTable) onEvict(env Env, ev cache.Evicted) {
	if ev.Flags&cache.FlagPrefetched != 0 {
		t.Reset(ev.Block)
		t.refreshLocal(env, ev.Block)
	}
}

// refreshLocal propagates a SeqTable update for block b into the cached
// local-status nibbles of the up to four resident predecessor lines. The
// write port that updates entry b snoops the local copies; without this a
// stale 0 bit in a long-resident line would suppress a now-useful prefetch
// for that line's whole residency.
func (t *SeqTable) refreshLocal(env Env, b isa.BlockID) {
	v := t.Get(b)
	for i := 1; i <= 4; i++ {
		if isa.BlockID(i) > b {
			break
		}
		line := env.L1iLine(b - isa.BlockID(i))
		if line == nil {
			continue
		}
		bit := uint8(1) << (i - 1)
		if v {
			line.Aux |= bit
		} else {
			line.Aux &^= bit
		}
	}
}

// SN4L is the selective next-four-line prefetcher: an N4L whose candidates
// are filtered by the SeqTable usefulness predictor. It prefetches directly
// into the L1i and needs no prefetch buffer.
type SN4L struct {
	Base
	*ConvBTB
	seq *SeqTable

	// UsefulHits counts demand hits on prefetched lines; Issued counts
	// prefetches sent.
	UsefulHits uint64
	Issued     uint64
}

// NewSN4L returns a standalone SN4L design. seqEntries is the SeqTable size
// (paper: 16K entries = 2KB); 0 means unlimited.
func NewSN4L(seqEntries, btbEntries int) *SN4L {
	return &SN4L{ConvBTB: NewConvBTB(btbEntries, 4), seq: NewSeqTable(seqEntries)}
}

// Name implements Design.
func (*SN4L) Name() string { return "SN4L" }

// OnDemand implements Design: update metadata and prefetch useful
// subsequents.
func (d *SN4L) OnDemand(b isa.BlockID, hit bool, _ [2]isa.Addr) {
	env := d.E()
	line := d.seq.onDemand(env, b, hit, &d.UsefulHits)
	var nib uint8
	if line != nil {
		nib = line.Aux
	} else {
		// The block is not resident, so the local status is unavailable;
		// read the SeqTable directly.
		nib = d.seq.Nibble(b)
	}
	for i := 1; i <= 4; i++ {
		if nib&(1<<(i-1)) == 0 {
			continue
		}
		nb := b + isa.BlockID(i)
		if env.L1iContains(nb) || env.InFlight(nb) {
			continue
		}
		if env.IssuePrefetch(nb) {
			d.Issued++
		}
	}
}

// OnFill implements Design: latch the local prefetch status beside the line.
func (d *SN4L) OnFill(b isa.BlockID, prefetch bool) { d.seq.onFill(d.E(), b) }

// OnEvict implements Design: a prefetched line evicted without a demand hit
// was a useless prefetch.
func (d *SN4L) OnEvict(ev cache.Evicted) { d.seq.onEvict(d.E(), ev) }

// StorageBits implements Design: 1 bit per SeqTable entry.
func (d *SN4L) StorageBits() int { return d.seq.Entries() }
