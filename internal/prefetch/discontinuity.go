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

	valid   []bool
	tags    []uint16
	targets []isa.BlockID
	mask    uint64
	tagBits uint

	prevBlock isa.BlockID
	havePrev  bool
}

// NewDiscontinuity returns the conventional design. tagBits=0 models the
// tagless table of prior work.
func NewDiscontinuity(entries int, tagBits uint, btbEntries int) *Discontinuity {
	if entries&(entries-1) != 0 {
		panic("prefetch: discontinuity entries must be a power of two")
	}
	return &Discontinuity{
		ConvBTB: NewConvBTB(btbEntries, 4),
		valid:   make([]bool, entries),
		tags:    make([]uint16, entries),
		targets: make([]isa.BlockID, entries),
		mask:    uint64(entries - 1),
		tagBits: tagBits,
	}
}

// Name implements Design.
func (*Discontinuity) Name() string { return "discontinuity" }

func (d *Discontinuity) idx(b isa.BlockID) uint64 { return uint64(b) & d.mask }

func (d *Discontinuity) tagOf(b isa.BlockID) uint16 {
	if d.tagBits == 0 {
		return 0
	}
	return uint16((uint64(b) >> 12) & ((1 << d.tagBits) - 1))
}

// OnDemand implements Design: record discontinuity misses, replay on every
// access.
func (d *Discontinuity) OnDemand(b isa.BlockID, hit bool, _ [2]isa.Addr) {
	env := d.E()
	if !hit && d.havePrev && b != d.prevBlock+1 {
		i := d.idx(d.prevBlock)
		d.valid[i] = true
		d.tags[i] = d.tagOf(d.prevBlock)
		d.targets[i] = b
	}
	d.prevBlock, d.havePrev = b, true

	i := d.idx(b)
	if d.valid[i] && d.tags[i] == d.tagOf(b) {
		t := d.targets[i]
		if !env.L1iContains(t) && !env.InFlight(t) {
			env.IssuePrefetch(t)
		}
	}
}

// StorageBits implements Design: each entry stores a full block address
// (~46 bits) plus the tag.
func (d *Discontinuity) StorageBits() int {
	return len(d.valid) * (46 + int(d.tagBits))
}
