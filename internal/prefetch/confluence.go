package prefetch

import "dnc/internal/isa"

// Confluence models the paper's Confluence configuration: the SHIFT
// temporal instruction prefetcher (miss-stream history recorded and
// replayed) paired with a 16K-entry BTB, which the original paper shows to
// be an upper bound for Confluence's BTB prefilling. The metadata —
// history buffer plus index — is the 200+ KB the paper criticizes; it is
// virtualized in the LLC, which we account for in StorageBits and in the
// two-step lookup latency (index read, then history read) modelled as the
// stream-head setup delay. Each history record is one missed block.
type Confluence struct {
	*ConvBTB
	temporalStream[missRecord]
}

// NewConfluence builds the design as the paper models it: SHIFT's 32K-entry
// history with a 16K-entry index, a lookahead of six blocks, and the
// 16K-entry upper-bound BTB.
func NewConfluence() *Confluence { return newConfluence(32<<10, 16<<10, 16<<10, 6) }

func newConfluence(histEntries, indexEntries, btbEntries, lookahead int) *Confluence {
	return &Confluence{
		ConvBTB:        NewConvBTB(btbEntries, 8),
		temporalStream: newTemporalStream[missRecord]("Confluence", histEntries, indexEntries, lookahead),
	}
}

// Name implements Design.
func (*Confluence) Name() string { return "confluence" }

// OnDemand implements Design: steer the replay stream, then record every
// miss into the history.
func (c *Confluence) OnDemand(b isa.BlockID, hit bool, last2 [2]isa.Addr) {
	c.temporalStream.OnDemand(b, hit, last2)
	if !hit {
		c.record(b, missRecord(b))
	}
}

// StorageBits implements Design: history (26-bit block addresses) plus index
// (tag + position) — the 200+ KB metadata virtualized in the LLC.
func (c *Confluence) StorageBits() int {
	return len(c.hist)*26 + c.indexBits()
}
