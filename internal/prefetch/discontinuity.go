package prefetch

import "dnc/internal/isa"

// Discontinuity is the conventional discontinuity prefetcher (Spracklen et
// al., HPCA 2005) used in the paper's motivation: a table mapping a trigger
// block to the full target address of the discontinuity miss that followed
// it. Each entry stores a whole address, which is why the conventional table
// costs tens of kilobytes — the Dis prefetcher's offset+predecode trick
// removes exactly this cost.
type Discontinuity struct {
	Base
	*ConvBTB

	tab *direct[isa.BlockID]

	prevBlock isa.BlockID
	havePrev  bool
}

// discontinuityTagShift is where the table's tag starts in the block
// number. At the catalog's 8K entries the index is bits 0-12, so bit 12 is
// in both the index and the tag; log2(entries) would tag above the index
// (ROADMAP item 7(i)).
const discontinuityTagShift = 12

// NewDiscontinuity returns the conventional design. tagBits=0 models the
// tagless table of prior work.
func NewDiscontinuity(entries int, tagBits uint, btbEntries int) *Discontinuity {
	return &Discontinuity{
		ConvBTB: NewConvBTB(btbEntries, 4),
		tab:     newDirect[isa.BlockID]("discontinuity", entries, discontinuityTagShift, tagBits),
	}
}

// Name implements Design.
func (*Discontinuity) Name() string { return "discontinuity" }

// OnDemand implements Design: record discontinuity misses, replay on every
// access.
func (d *Discontinuity) OnDemand(b isa.BlockID, hit bool, _ [2]isa.Addr) {
	env := d.E()
	if !hit && d.havePrev && b != d.prevBlock+1 {
		*d.tab.write(uint64(d.prevBlock)) = b
	}
	d.prevBlock, d.havePrev = b, true

	if t := d.tab.lookup(uint64(b)); t != nil {
		prefetchAbsent(env, *t)
	}
}

// StorageBits implements Design: each entry stores a full block address
// (~46 bits) plus the tag.
func (d *Discontinuity) StorageBits() int {
	return d.tab.entries() * (46 + int(d.tab.bits))
}
