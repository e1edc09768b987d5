package prefetch

import (
	"dnc/internal/btb"
	"dnc/internal/isa"
)

// PIF is Proactive Instruction Fetch (Ferdman, Kaynak, Falsafi; MICRO 2011
// — the paper's reference [15]): access-based temporal prefetching. The
// retire-order instruction stream is compacted into spatial regions (a
// trigger block plus a bit vector of its neighborhood) and logged in a
// history buffer; an index maps a trigger block to its latest history
// position. When fetch misses on a block that matches a recorded trigger,
// PIF replays the stream from that point, prefetching whole regions ahead
// of fetch.
//
// PIF is the strongest — and most expensive — instruction prefetcher of the
// temporal family: the paper cites roughly 200 KB of per-core metadata,
// which is exactly what StorageBits reports for the default configuration.
type PIF struct {
	*ConvBTB
	temporalStream[pifRegion]

	// Region under construction from the retired stream.
	curTrigger isa.BlockID
	curBits    uint16
	haveCur    bool
}

// pifRegionSpan is the neighborhood a region covers: the trigger block plus
// pifRegionBefore blocks behind and the rest ahead.
const (
	pifRegionBits   = 16
	pifRegionBefore = 4
)

type pifRegion struct {
	trigger isa.BlockID
	bits    uint16 // bit i = block trigger-pifRegionBefore+i accessed
}

func (r pifRegion) appendBlocks(dst []isa.BlockID) []isa.BlockID {
	return btb.AppendRegion(dst, r.trigger, uint64(r.bits), pifRegionBefore)
}

// NewPIF builds the design at the ~200 KB metadata budget the paper cites:
// a 32K-region history, a 16K-entry index, a 2K-entry BTB and a lookahead
// of four regions.
func NewPIF() *PIF { return newPIF(32<<10, 16<<10, 2<<10, 4) }

func newPIF(histRegions, indexEntries, btbEntries, lookahead int) *PIF {
	return &PIF{
		ConvBTB:        NewConvBTB(btbEntries, 4),
		temporalStream: newTemporalStream[pifRegion]("PIF", histRegions, indexEntries, lookahead),
	}
}

// Name implements Design.
func (*PIF) Name() string { return "PIF" }

// OnRetire implements Retirer: compact the retire-order stream into spatial
// regions, logging each closed region under its trigger block.
func (p *PIF) OnRetire(inst isa.Inst, taken bool, target isa.Addr) {
	b := isa.BlockOf(inst.PC)
	if p.haveCur {
		delta := int64(b) - int64(p.curTrigger) + pifRegionBefore
		if delta >= 0 && delta < pifRegionBits {
			p.curBits |= 1 << uint(delta)
			return
		}
		p.record(p.curTrigger, pifRegion{trigger: p.curTrigger, bits: p.curBits})
	}
	p.curTrigger = b
	p.curBits = 1 << pifRegionBefore
	p.haveCur = true
}

// StorageBits implements Design: the history (26-bit trigger + 16-bit
// vector per region) plus the index — about 200 KB at the default sizes.
func (p *PIF) StorageBits() int {
	return len(p.hist)*(26+pifRegionBits) + p.indexBits()
}
