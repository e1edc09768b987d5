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
// failure mode quantified in the paper's Section III.
type Shotgun struct {
	Base
	sb *btb.ShotgunBTB
	// bypc mirrors entries keyed by branch PC for the core's per-branch
	// lookups, split per structure to model their distinct capacities.
	bypcU *btb.Table[btb.Entry]
	bypcC *btb.Table[btb.Entry]
	bypcR *btb.Table[btb.Entry]
	rec   *bbRecorder
	q     *ftq

	walkPC    isa.Addr
	walkValid bool
	stalled   bool
	stalledOn isa.BlockID
	specRAS   []shotgunRASEntry

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

	// WalkBudget is basic blocks advanced per cycle.
	WalkBudget int

	// Buffered selects whether prefetches land in the L1i prefetch buffer
	// (the paper's Shotgun uses a 64-entry buffer) or directly in the L1i.
	Buffered bool

	// Stats.
	ReactiveFills     uint64
	Squashes          uint64
	FootprintPrefetch uint64
	EnginePrefetches  uint64
	ProactivePrefills uint64
}

type shotgunRASEntry struct {
	ret   isa.Addr
	retFP btb.Footprint
}

// ShotgunDesignConfig wraps the BTB sizing plus engine parameters.
type ShotgunDesignConfig struct {
	BTB        btb.ShotgunConfig
	FTQEntries int
	WalkBudget int
	Buffered   bool
}

// DefaultShotgunDesignConfig matches the paper: 1.5K U-BTB, 128 C-BTB,
// 512 RIB, 32-entry FTQ, 64-entry L1i prefetch buffer.
func DefaultShotgunDesignConfig() ShotgunDesignConfig {
	return ShotgunDesignConfig{
		BTB:        btb.DefaultShotgunConfig(),
		FTQEntries: 32,
		WalkBudget: 2,
		Buffered:   true,
	}
}

// NewShotgun builds the design.
func NewShotgun(cfg ShotgunDesignConfig) *Shotgun {
	if cfg.FTQEntries == 0 {
		cfg = DefaultShotgunDesignConfig()
	}
	d := &Shotgun{
		sb:         btb.NewShotgun(cfg.BTB),
		bypcU:      btb.NewTable[btb.Entry](cfg.BTB.UEntries, cfg.BTB.UWays),
		bypcC:      btb.NewTable[btb.Entry](cfg.BTB.CEntries, cfg.BTB.CWays),
		bypcR:      btb.NewTable[btb.Entry](cfg.BTB.REntries, cfg.BTB.RWays),
		q:          newFTQ(cfg.FTQEntries),
		WalkBudget: cfg.WalkBudget,
		Buffered:   cfg.Buffered,
	}
	d.rec = newBBRecorder(0, d.commitBB)
	return d
}

// Name implements Design.
func (*Shotgun) Name() string { return "shotgun" }

// SplitBTB exposes the underlying structure.
func (d *Shotgun) SplitBTB() *btb.ShotgunBTB { return d.sb }

// AddProbes implements Prober.
func (d *Shotgun) AddProbes(p *Probes) {
	p.UBTBLookups += d.sb.ULookups
	p.UBTBFootprintMiss += d.sb.UFootprintMiss
}

// bypcFor routes a branch kind to its per-PC view.
func (d *Shotgun) bypcFor(kind isa.Kind) *btb.Table[btb.Entry] {
	switch kind {
	case isa.KindCondBranch:
		return d.bypcC
	case isa.KindReturn:
		return d.bypcR
	default:
		return d.bypcU
	}
}

// BTBLookup implements Design: search the three structures.
func (d *Shotgun) BTBLookup(pc isa.Addr, kind isa.Kind) (isa.Addr, bool) {
	if e, ok := d.bypcFor(kind).Lookup(pc); ok {
		return e.Target, true
	}
	return 0, false
}

// BTBCommit implements Design.
func (d *Shotgun) BTBCommit(pc isa.Addr, kind isa.Kind, target isa.Addr, taken bool) {
	t := d.bypcFor(kind)
	if kind == isa.KindCondBranch && !taken {
		if _, ok := t.Peek(pc); ok {
			return
		}
	}
	t.Insert(pc, btb.Entry{Kind: kind, Target: target})
}

// OnRetire implements Design: delimit basic blocks, train the split BTB,
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
			d.pushFPOwner(d.lastUStart)
		}
	case isa.KindReturn:
		d.closeRegion()
		if owner, ok := d.popFPOwner(); ok && target != 0 {
			d.openRegion(owner, isa.BlockOf(target), true)
		}
	}
}

// commitBB receives completed basic blocks from the recorder.
func (d *Shotgun) commitBB(start isa.Addr, e btb.BBEntry) {
	switch e.Kind {
	case isa.KindCondBranch:
		d.sb.C.Insert(start, e)
	case isa.KindReturn:
		d.sb.RIB.Insert(start, e)
	case isa.KindJump, isa.KindCall, isa.KindIndirect:
		d.sb.CommitU(start, btb.UBBEntry{BB: e})
		// The region opened by OnRetire for this branch is owned by this
		// basic block.
		d.lastUStart = start
	}
	if e.Kind.IsBranch() {
		d.bypcFor(e.Kind).Insert(e.BranchPC, btb.Entry{Kind: e.Kind, Target: e.Target})
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

func (d *Shotgun) pushFPOwner(owner isa.Addr) {
	const depth = 16
	if len(d.fpStack) == depth {
		copy(d.fpStack, d.fpStack[1:])
		d.fpStack = d.fpStack[:depth-1]
	}
	d.fpStack = append(d.fpStack, owner)
}

func (d *Shotgun) popFPOwner() (isa.Addr, bool) {
	if len(d.fpStack) == 0 {
		return 0, false
	}
	v := d.fpStack[len(d.fpStack)-1]
	d.fpStack = d.fpStack[:len(d.fpStack)-1]
	return v, true
}

// QueueOccupancy implements OccupancyReporter: the FTQ's current depth.
func (d *Shotgun) QueueOccupancy() int { return len(d.q.blocks) }

// FTQGate implements Design.
func (d *Shotgun) FTQGate(pc isa.Addr) bool {
	b := isa.BlockOf(pc)
	if h, ok := d.q.head(); ok {
		if h == b {
			d.q.pop()
			return true
		}
		d.Squashes++
		d.restart(pc)
		return false
	}
	if !d.walkValid && !d.stalled {
		d.restart(pc)
	}
	return false
}

// OnRedirect implements Design.
func (d *Shotgun) OnRedirect(pc isa.Addr) {
	d.restart(pc)
	d.rec.redirect(pc)
}

func (d *Shotgun) restart(pc isa.Addr) {
	d.q.reset()
	d.specRAS = d.specRAS[:0]
	d.stalled = false
	d.walkPC = pc
	d.walkValid = true
}

// OnFill implements Design: resume reactive repairs and proactively
// pre-decode prefetched blocks into the C-BTB/RIB (Shotgun's aggressive
// prefill).
func (d *Shotgun) OnFill(b isa.BlockID, prefetch bool) {
	// Aggressive prefill: every arriving block is pre-decoded and its
	// branches installed (the mechanism keeping the small C-BTB alive).
	d.proactivePrefill(b)
	if d.stalled && b == d.stalledOn {
		d.stalled = false
		d.reactiveDecode(b)
	}
}

// reactiveDecode pre-decodes the block that repaired a BTB miss, installs
// the basic block at the stalled walk point, and consumes it immediately so
// the walk advances even for fallthrough continuations (which have no home
// in the split BTB and are re-decoded on every encounter — part of the
// block-at-a-time crawl the paper describes for footprint misses).
func (d *Shotgun) reactiveDecode(b isa.BlockID) {
	brs := d.E().Predecode(b)
	e := bbFromPredecode(d.walkPC, brs)
	if e.Kind == isa.KindJump || e.Kind == isa.KindCall || e.Kind == isa.KindIndirect {
		// The stalled lookup was for a genuinely unconditional basic block:
		// a U-BTB entry miss, hence a footprint miss (Figure 1).
		d.sb.NoteResolvedUncond()
	}
	d.prefillBB(d.walkPC, e)
	d.ReactiveFills++
	d.consume(d.walkPC, e, nil)
}

// prefillBB installs a pre-decoded basic block (no footprints available).
func (d *Shotgun) prefillBB(start isa.Addr, e btb.BBEntry) {
	switch e.Kind {
	case isa.KindCondBranch:
		d.sb.C.Insert(start, e)
	case isa.KindReturn:
		d.sb.RIB.Insert(start, e)
	case isa.KindJump, isa.KindCall, isa.KindIndirect:
		d.sb.PrefillU(start, e)
	}
	if e.Kind.IsBranch() {
		d.bypcFor(e.Kind).Insert(e.BranchPC, btb.Entry{Kind: e.Kind, Target: e.Target})
	}
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
		d.ProactivePrefills++
	}
}

// Quiescent implements Quiescer: Tick is a no-op only when the engine is
// not mid-repair (a stalled engine probes the L1i every cycle, which counts
// cache lookups) and the walk either has no valid PC or a full FTQ.
func (d *Shotgun) Quiescent() bool {
	return !d.stalled && (!d.walkValid || d.q.full())
}

// Tick implements Design.
func (d *Shotgun) Tick() {
	env := d.E()
	if d.stalled {
		if env.L1iContains(d.stalledOn) {
			d.stalled = false
			d.reactiveDecode(d.stalledOn)
		} else if !env.InFlight(d.stalledOn) {
			env.IssuePrefetch(d.stalledOn, d.Buffered)
		}
		return
	}
	if !d.walkValid {
		return
	}
	budget := d.WalkBudget
	if budget == 0 {
		budget = 2
	}
	for i := 0; i < budget; i++ {
		if d.q.full() || d.stalled || !d.walkValid {
			return
		}
		d.walkOne()
	}
}

// walkOne advances the engine one basic block through the split BTB.
func (d *Shotgun) walkOne() {
	env := d.E()
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

	// All three structures missed: reactive prefill, engine stalls.
	b := isa.BlockOf(start)
	if env.L1iContains(b) {
		d.reactiveDecode(b)
		return
	}
	d.stalled = true
	d.stalledOn = b
	if !env.InFlight(b) {
		env.IssuePrefetch(b, d.Buffered)
	}
}

// consume processes one basic block: enqueue its blocks into the FTQ,
// prefetch footprints (for U-BTB hits), and advance the walk point. ue is
// non-nil when the block came from the U-BTB with footprints attached.
func (d *Shotgun) consume(start isa.Addr, e btb.BBEntry, ue *btb.UBBEntry) {
	env := d.E()
	d.enqueueSpan(start, e)
	switch e.Kind {
	case isa.KindALU:
		d.walkPC = e.Fallthrough(start)
	case isa.KindCondBranch:
		if env.PredictTaken(e.BranchPC) {
			d.walkPC = e.Target
		} else {
			d.walkPC = e.Fallthrough(start)
		}
	case isa.KindReturn:
		if n := len(d.specRAS); n > 0 {
			top := d.specRAS[n-1]
			d.specRAS = d.specRAS[:n-1]
			d.walkPC = top.ret
			d.prefetchFootprint(top.retFP, isa.BlockOf(top.ret))
		} else {
			d.walkValid = false
		}
	default: // jump, call, indirect
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
}

func (d *Shotgun) pushRAS(e shotgunRASEntry) {
	const depth = 16
	if len(d.specRAS) == depth {
		copy(d.specRAS, d.specRAS[1:])
		d.specRAS = d.specRAS[:depth-1]
	}
	d.specRAS = append(d.specRAS, e)
}

// prefetchFootprint issues prefetches for every block in a footprint.
func (d *Shotgun) prefetchFootprint(fp btb.Footprint, base isa.BlockID) {
	env := d.E()
	for _, blk := range fp.Blocks(base) {
		if env.L1iContains(blk) || env.InFlight(blk) {
			continue
		}
		if env.IssuePrefetch(blk, d.Buffered) {
			d.FootprintPrefetch++
		}
	}
}

// enqueueSpan pushes the basic block's blocks into the FTQ, prefetching
// absent ones.
func (d *Shotgun) enqueueSpan(start isa.Addr, e btb.BBEntry) {
	env := d.E()
	size := isa.Addr(e.Size)
	if size == 0 {
		size = 1
	}
	first := isa.BlockOf(start)
	last := isa.BlockOf(start + size - 1)
	for b := first; b <= last; b++ {
		d.q.push(b)
		if !env.L1iContains(b) && !env.InFlight(b) {
			if env.IssuePrefetch(b, d.Buffered) {
				d.EnginePrefetches++
			}
		}
	}
}

// StorageBits implements Design: footprints and basic-block metadata in the
// U-BTB plus the FTQ and the prefetch buffers (~6 KB per the paper).
func (d *Shotgun) StorageBits() int {
	uExtra := d.sb.U.Entries() * (2*btb.FootprintBits + 7 + 3)
	cExtra := d.sb.C.Entries() * 7
	rExtra := d.sb.RIB.Entries() * 7
	ftqBits := d.q.cap * 46
	// Buffer metadata (tags and control); the data arrays are accounted as
	// cache storage, as the paper's 6 KB figure does.
	pfBuffer := 64 * 48 // 64-entry L1i prefetch buffer tags
	btbPB := 32 * 56    // 32-entry BTB prefetch buffer tags+targets
	return uExtra + cExtra + rExtra + ftqBits + pfBuffer + btbPB
}
