package prefetch

import (
	"dnc/internal/btb"
	"dnc/internal/isa"
)

// Shotgun (Kumar et al., ASPLOS 2018) extends Boomerang for large
// instruction footprints: the BTB is split into a large U-BTB for basic
// blocks ending in unconditional branches — whose entries carry call/return
// footprints of the blocks touched around the branch target and return site
// — plus a small C-BTB for conditionals and a RIB for returns. On a U-BTB
// hit the engine bulk-prefetches the footprint blocks without walking the
// conditional branches inside the region; the C-BTB is kept warm by
// aggressively pre-decoding prefetched blocks. When a U-BTB entry or its
// footprints are missing (they can only be constructed from the retired
// stream), the engine degenerates to block-at-a-time reactive prefill — the
// failure mode quantified in the paper's Section III. The walk is the
// shared fdipWalk; Shotgun adds its split BTB and the footprints.
type Shotgun struct {
	fdipWalk[shotgunRASEntry]
	sb *btb.ShotgunBTB
	// bypc mirrors entries keyed by branch PC for the core's per-branch
	// lookups, split per structure to model their distinct capacities.
	bypcU *btb.BTB
	bypcC *btb.BTB
	bypcR *btb.BTB

	// lastUStart is the start address of the most recently committed basic
	// block ending in an unconditional branch; footprint regions are
	// attributed to it.
	lastUStart isa.Addr

	// Open footprint-recording region (constructed from the retired
	// stream).
	region struct {
		open  bool
		owner isa.Addr // U-BTB key (basic-block start) owning the region
		base  isa.BlockID
		fp    btb.Footprint
		isRet bool
	}
	fpStack []isa.Addr // call-site owners awaiting their return footprint
}

type shotgunRASEntry struct {
	ret   isa.Addr
	retFP btb.Footprint
}

// ShotgunDesignConfig sizes the design. Each zero field takes the paper's
// value, so ShotgunDesignConfig{} is the catalog's Shotgun.
type ShotgunDesignConfig struct {
	// BTBPercent scales the U-BTB, C-BTB and RIB to this percent of the
	// paper's 1.5K, 128 and 512 entries (0 = 100): Figure 18's BTB size axis.
	BTBPercent int
	// FTQEntries is the FTQ's depth (paper: 32), which ROADMAP item 15(c)
	// sweeps.
	FTQEntries int
	// WalkBudget is how many basic blocks the walk advances per cycle
	// (paper: 2), which ROADMAP item 26(b) sweeps.
	WalkBudget int
}

// shotgunBufferEntries sizes the L1i prefetch buffer Shotgun's prefetches
// land in (the paper's 64 entries), declared to the core through Bufferer.
const shotgunBufferEntries = 64

// NewShotgun builds the design.
func NewShotgun(cfg ShotgunDesignConfig) *Shotgun {
	sb := btb.NewShotgun(cfg.BTBPercent)
	d := &Shotgun{
		sb:    sb,
		bypcU: btb.New(sb.U.Entries(), sb.U.Ways()),
		bypcC: btb.New(sb.C.Entries(), sb.C.Ways()),
		bypcR: btb.New(sb.RIB.Entries(), sb.RIB.Ways()),
	}
	d.fdipWalk = newFDIPWalk[shotgunRASEntry](cfg.FTQEntries, cfg.WalkBudget, d.commitBB)
	return d
}

// Name implements Design.
func (*Shotgun) Name() string { return "shotgun" }

// BufferEntries implements Bufferer.
func (*Shotgun) BufferEntries() int { return shotgunBufferEntries }

// AddProbes implements Prober.
func (d *Shotgun) AddProbes(p *Probes) {
	p.UBTBLookups += d.sb.ULookups
	p.UBTBFootprintMiss += d.sb.UFootprintMiss
}

// bypcFor routes a branch kind to its per-PC view.
func (d *Shotgun) bypcFor(kind isa.Kind) *btb.BTB {
	switch kind {
	case isa.KindCondBranch:
		return d.bypcC
	case isa.KindReturn:
		return d.bypcR
	default:
		return d.bypcU
	}
}

// BTBLookup implements Design: search the structure the kind selects.
func (d *Shotgun) BTBLookup(pc isa.Addr, kind isa.Kind) (isa.Addr, bool) {
	return lookupBranch(d.bypcFor(kind), pc)
}

// BTBCommit implements Design.
func (d *Shotgun) BTBCommit(pc isa.Addr, kind isa.Kind, target isa.Addr, taken bool) {
	commitBranch(d.bypcFor(kind), pc, kind, target, taken)
}

// OnRetire implements Retirer: delimit basic blocks, train the split BTB,
// and record footprints from the retired stream.
func (d *Shotgun) OnRetire(inst isa.Inst, taken bool, target isa.Addr) {
	// Footprint recording: every committed instruction adds its block to
	// the open region.
	if d.region.open {
		d.region.fp.Set(int(int64(isa.BlockOf(inst.PC)) - int64(d.region.base)))
	}
	d.rec.retire(inst, taken, target)

	if !inst.Kind.IsBranch() {
		return
	}
	switch inst.Kind {
	case isa.KindJump, isa.KindCall, isa.KindIndirect:
		d.closeRegion()
		// commitBB (called through rec.retire above) recorded the start of
		// the basic block ending in this branch; that entry owns the new
		// region around the branch target.
		if taken && target != 0 {
			d.openRegion(d.lastUStart, isa.BlockOf(target), false)
		}
		if inst.Kind == isa.KindCall || inst.Kind == isa.KindIndirect {
			d.fpStack = pushBounded(d.fpStack, d.lastUStart, 16)
		}
	case isa.KindReturn:
		d.closeRegion()
		if owner, ok := pop(&d.fpStack); ok && target != 0 {
			d.openRegion(owner, isa.BlockOf(target), true)
		}
	}
}

// commitBB receives completed basic blocks from the recorder.
func (d *Shotgun) commitBB(start isa.Addr, e btb.BBEntry) {
	switch e.Kind {
	case isa.KindJump, isa.KindCall, isa.KindIndirect:
		d.sb.CommitU(start, btb.UBBEntry{BB: e})
		// The region opened by OnRetire for this branch is owned by this
		// basic block.
		d.lastUStart = start
	}
	d.installBB(start, e)
}

// prefillBB installs a pre-decoded basic block; an unconditional one enters
// the U-BTB without footprints.
func (d *Shotgun) prefillBB(start isa.Addr, e btb.BBEntry) {
	switch e.Kind {
	case isa.KindJump, isa.KindCall, isa.KindIndirect:
		d.sb.PrefillU(start, e)
	}
	d.installBB(start, e)
}

// installBB is what commitBB and prefillBB share: a conditional or return
// block goes into the C-BTB or RIB, and every branch into its per-PC view.
func (d *Shotgun) installBB(start isa.Addr, e btb.BBEntry) {
	switch e.Kind {
	case isa.KindCondBranch:
		d.sb.C.Put(start, e)
	case isa.KindReturn:
		d.sb.RIB.Put(start, e)
	}
	if e.Kind.IsBranch() {
		d.bypcFor(e.Kind).Put(e.BranchPC, btb.Entry{Kind: e.Kind, Target: e.Target})
	}
}

func (d *Shotgun) openRegion(owner isa.Addr, base isa.BlockID, isRet bool) {
	d.region.open = true
	d.region.owner = owner
	d.region.base = base
	d.region.fp = btb.Footprint{}
	d.region.isRet = isRet
}

func (d *Shotgun) closeRegion() {
	if !d.region.open {
		return
	}
	if d.region.isRet {
		d.sb.UpdateFootprints(d.region.owner, nil, &d.region.fp)
	} else {
		d.sb.UpdateFootprints(d.region.owner, &d.region.fp, nil)
	}
	d.region.open = false
}

// OnFill implements Design: resume reactive repairs and proactively
// pre-decode prefetched blocks into the C-BTB/RIB (Shotgun's aggressive
// prefill).
func (d *Shotgun) OnFill(b isa.BlockID, prefetch bool) {
	// Aggressive prefill: every arriving block is pre-decoded and its
	// branches installed (the mechanism keeping the small C-BTB alive).
	d.proactivePrefill(b)
	if d.arrived(b) {
		d.repair(b)
	}
}

// repair pre-decodes block b, which repaired a BTB miss, installs the basic
// block at the walk point, and consumes it immediately so the walk advances
// even for fallthrough continuations (which have no home in the split BTB
// and are re-decoded on every encounter — part of the block-at-a-time crawl
// the paper describes for footprint misses).
func (d *Shotgun) repair(b isa.BlockID) {
	e := bbFromPredecode(d.walkPC, d.E().Predecode(b))
	if e.Kind == isa.KindJump || e.Kind == isa.KindCall || e.Kind == isa.KindIndirect {
		// The stalled lookup was for a genuinely unconditional basic block:
		// a U-BTB entry miss, hence a footprint miss (Figure 1).
		d.sb.NoteResolvedUncond()
	}
	d.prefillBB(d.walkPC, e)
	d.consume(d.walkPC, e, nil)
}

// proactivePrefill decodes a prefetched block and installs every branch as
// a basic-block entry whose start is estimated from the preceding branch.
func (d *Shotgun) proactivePrefill(b isa.BlockID) {
	brs := d.E().Predecode(b)
	if len(brs) == 0 {
		return
	}
	base := isa.BlockBase(b)
	start := base
	for _, br := range brs {
		e := btb.BBEntry{
			Size:     uint16(isa.Addr(br.Offset)+isa.FixedSize) - uint16(start-base),
			Kind:     br.Kind,
			BranchPC: base + isa.Addr(br.Offset),
			Target:   br.Target,
		}
		d.prefillBB(start, e)
		start = base + isa.Addr(br.Offset) + isa.FixedSize
	}
}

// Tick implements Design.
func (d *Shotgun) Tick() {
	if d.stalled {
		if d.retry() {
			d.repair(d.stalledOn)
		}
		return
	}
	for n := d.budget; n > 0 && d.walking(); n-- {
		d.walkOne()
	}
}

// walkOne advances the engine one basic block through the split BTB.
func (d *Shotgun) walkOne() {
	start := d.walkPC

	if e, ok := d.sb.C.Lookup(start); ok {
		d.consume(start, e, nil)
		return
	}
	if e, ok := d.sb.RIB.Lookup(start); ok {
		d.consume(start, e, nil)
		return
	}
	if ue, ok := d.sb.LookupU(start); ok {
		d.consume(start, ue.BB, &ue)
		return
	}

	// All three structures missed: reactive prefill.
	if d.miss() {
		d.repair(isa.BlockOf(start))
	}
}

// consume takes one basic block: enqueue its blocks into the FTQ, prefetch
// footprints (for U-BTB hits), and advance the walk point. ue is non-nil
// when the block came from the U-BTB with footprints attached.
func (d *Shotgun) consume(start isa.Addr, e btb.BBEntry, ue *btb.UBBEntry) {
	if d.take(start, e) {
		return
	}
	if e.Kind == isa.KindReturn {
		if top, ok := d.popRAS(); ok {
			d.walkPC = top.ret
			d.prefetchFootprint(top.retFP, isa.BlockOf(top.ret))
		}
		return
	}
	// Jump, call, indirect.
	if e.Target == 0 {
		d.walkValid = false
		return
	}
	if ue != nil {
		// Footprint-driven bulk prefetch around the target region.
		d.prefetchFootprint(ue.CallFP, isa.BlockOf(e.Target))
	}
	if e.Kind == isa.KindCall || e.Kind == isa.KindIndirect {
		ras := shotgunRASEntry{ret: e.Fallthrough(start)}
		if ue != nil {
			ras.retFP = ue.RetFP
		}
		d.pushRAS(ras)
	}
	d.walkPC = e.Target
}

// prefetchFootprint issues prefetches for every block in a footprint.
func (d *Shotgun) prefetchFootprint(fp btb.Footprint, base isa.BlockID) {
	env := d.E()
	var buf [btb.FootprintBits]isa.BlockID
	for _, blk := range fp.AppendBlocks(buf[:0], base) {
		prefetchAbsent(env, blk)
	}
}

// StorageBits implements Design: footprints and basic-block metadata in the
// U-BTB plus the FTQ and the prefetch buffers (~6 KB per the paper).
func (d *Shotgun) StorageBits() int {
	uExtra := d.sb.U.Entries() * (2*btb.FootprintBits + 7 + 3)
	cExtra := d.sb.C.Entries() * 7
	rExtra := d.sb.RIB.Entries() * 7
	// Buffer metadata (tags and control); the data arrays are accounted as
	// cache storage, as the paper's 6 KB figure does.
	pfBuffer := shotgunBufferEntries * 48 // L1i prefetch buffer tags
	btbPB := 32 * 56                      // 32-entry BTB prefetch buffer tags+targets
	return uExtra + cExtra + rExtra + d.ftqBits() + pfBuffer + btbPB
}
