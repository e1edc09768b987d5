package prefetch

import (
	"dnc/internal/btb"
	"dnc/internal/isa"
)

// ConvBTB is the conventional program-counter-indexed BTB front. Nine
// designs embed it as their BTB organization, and its BTBLookup and
// BTBCommit are theirs: the baseline, NXL (NL to N8L, NL-miss, NL-tagged),
// SN4L, Dis, Proactive (SN4L+Dis and SN4L+Dis+BTB), the conventional
// Discontinuity prefetcher, RDIP, PIF and Confluence. It optionally consults
// a BTB prefetch buffer on misses, promoting a hit block's branches into the
// BTB (Section V.C); only SN4L+Dis+BTB has one.
type ConvBTB struct {
	BTB *btb.BTB
	// PB is the optional BTB prefetch buffer; nil disables prefill.
	PB *btb.PrefetchBuffer
}

// NewConvBTB returns a conventional BTB of the given capacity.
func NewConvBTB(entries, ways int) *ConvBTB {
	return &ConvBTB{BTB: btb.New(entries, ways)}
}

// BTBLookup implements Design.
func (c *ConvBTB) BTBLookup(pc isa.Addr, kind isa.Kind) (isa.Addr, bool) {
	if target, ok := lookupBranch(c.BTB, pc); ok || c.PB == nil {
		return target, ok
	}
	// A prefetch-buffer hit moves the whole block's branches into the BTB.
	brs, ok := c.PB.TakeBlock(isa.BlockOf(pc))
	if !ok {
		return 0, false
	}
	var target isa.Addr
	found := false
	base := isa.BlockBase(isa.BlockOf(pc))
	for _, br := range brs {
		brPC := base + isa.Addr(br.Offset)
		c.BTB.Put(brPC, btb.Entry{Kind: br.Kind, Target: br.Target})
		if brPC == pc {
			target = br.Target
			found = true
		}
	}
	return target, found
}

// BTBCommit implements Design: it trains the BTB with a resolved branch.
func (c *ConvBTB) BTBCommit(pc isa.Addr, kind isa.Kind, target isa.Addr, taken bool) {
	commitBranch(c.BTB, pc, kind, target, taken)
}

// lookupBranch returns a branch's target from a PC-indexed BTB table.
func lookupBranch(t *btb.BTB, pc isa.Addr) (isa.Addr, bool) {
	if e, ok := t.Lookup(pc); ok {
		return e.Target, true
	}
	return 0, false
}

// commitBranch trains a PC-indexed BTB table with a resolved branch. A
// not-taken conditional still allocates, so a later taken outcome has a
// target (the common allocate-on-decode policy), but it does not displace
// the entry it already has.
func commitBranch(t *btb.BTB, pc isa.Addr, kind isa.Kind, target isa.Addr, taken bool) {
	if !taken && kind == isa.KindCondBranch {
		if _, ok := t.Peek(pc); ok {
			return
		}
	}
	t.Put(pc, btb.Entry{Kind: kind, Target: target})
}

// Baseline is the no-prefetch design: a conventional BTB and nothing else.
type Baseline struct {
	Base
	*ConvBTB
}

// NewBaseline returns the baseline design with a BTB of the given entries.
func NewBaseline(btbEntries int) *Baseline {
	return &Baseline{ConvBTB: NewConvBTB(btbEntries, 4)}
}

// Name implements Design.
func (*Baseline) Name() string { return "baseline" }
