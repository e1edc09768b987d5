package prefetch

import (
	"dnc/internal/btb"
	"dnc/internal/isa"
)

// Boomerang (Kumar et al., HPCA 2017) is the BTB-directed prefetcher that
// revived fetch-directed instruction prefetching: a basic-block-oriented BTB
// walked ahead of fetch by the branch prediction unit fills a fetch target
// queue (FTQ); blocks entering the FTQ are prefetched, and BTB misses are
// repaired reactively by fetching and pre-decoding the missing block. While
// a BTB miss is being repaired the engine cannot insert into the FTQ — the
// dependence on BTB content the paper's Section III criticizes. The walk is
// the shared fdipWalk; Boomerang adds its basic-block BTB.
type Boomerang struct {
	fdipWalk[isa.Addr]
	bb *btb.BBBTB
	// bypc mirrors BB entries keyed by branch PC for the core's per-branch
	// target lookups; it is the same logical BTB viewed by tag.
	bypc *btb.BTB
}

// BoomerangConfig sizes the design. Each zero field takes the paper's
// value, so BoomerangConfig{} is the catalog's Boomerang.
type BoomerangConfig struct {
	// BTBEntries is the basic-block BTB's size (paper: 2K), the BTB reach
	// ROADMAP item 15(c) sweeps.
	BTBEntries int
	// FTQEntries is the FTQ's depth (paper: 32), item 15(c)'s other axis.
	FTQEntries int
	// WalkBudget is how many basic blocks the walk advances per cycle
	// (paper: 2), which ROADMAP item 26(b) sweeps.
	WalkBudget int
}

// boomerangBTBWays is the basic-block BTB's associativity.
const boomerangBTBWays = 4

// NewBoomerang builds the design.
func NewBoomerang(cfg BoomerangConfig) *Boomerang {
	if cfg.BTBEntries == 0 {
		cfg.BTBEntries = 2048
	}
	d := &Boomerang{
		bb:   btb.NewBBBTB(cfg.BTBEntries, boomerangBTBWays),
		bypc: btb.New(cfg.BTBEntries, boomerangBTBWays),
	}
	d.fdipWalk = newFDIPWalk[isa.Addr](cfg.FTQEntries, cfg.WalkBudget, d.insertBB)
	return d
}

// Name implements Design.
func (*Boomerang) Name() string { return "boomerang" }

// insertBB installs a basic block into both views of the BTB.
func (d *Boomerang) insertBB(start isa.Addr, e btb.BBEntry) {
	d.bb.Put(start, e)
	if e.Kind.IsBranch() {
		d.bypc.Put(e.BranchPC, btb.Entry{Kind: e.Kind, Target: e.Target})
	}
}

// BTBLookup implements Design (core-side per-branch view).
func (d *Boomerang) BTBLookup(pc isa.Addr, kind isa.Kind) (isa.Addr, bool) {
	return lookupBranch(d.bypc, pc)
}

// BTBCommit implements Design: commit-time training happens through
// OnRetire's basic-block recorder; per-branch commits keep the by-PC view
// warm for branches whose block boundaries were disturbed by redirects.
func (d *Boomerang) BTBCommit(pc isa.Addr, kind isa.Kind, target isa.Addr, taken bool) {
	commitBranch(d.bypc, pc, kind, target, taken)
}

// OnFill implements Design: a fill repairing a reactive BTB miss lets the
// engine decode and resume.
func (d *Boomerang) OnFill(b isa.BlockID, _ bool) {
	if d.arrived(b) {
		d.repair(b)
	}
}

// repair decodes block b, which holds the walk point, and installs the
// basic block starting there; the walk resumes from it next cycle.
func (d *Boomerang) repair(b isa.BlockID) {
	d.insertBB(d.walkPC, bbFromPredecode(d.walkPC, d.E().Predecode(b)))
}

// Tick implements Design: advance the walk, filling the FTQ and prefetching
// its blocks.
func (d *Boomerang) Tick() {
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

// walkOne advances the walk by one basic block.
func (d *Boomerang) walkOne() {
	start := d.walkPC
	e, ok := d.bb.Lookup(start)
	if !ok {
		if d.miss() {
			d.repair(isa.BlockOf(start))
		}
		return
	}
	if d.take(start, e) {
		return
	}
	switch e.Kind {
	case isa.KindJump:
		d.walkPC = e.Target
	case isa.KindCall:
		d.pushRAS(e.Fallthrough(start))
		d.walkPC = e.Target
	case isa.KindReturn:
		if ret, ok := d.popRAS(); ok {
			d.walkPC = ret
		}
	case isa.KindIndirect:
		if e.Target == 0 {
			d.walkValid = false
			return
		}
		d.pushRAS(e.Fallthrough(start)) // indirect call site
		d.walkPC = e.Target
	}
}

// StorageBits implements Design: the basic-block BTB extensions over a
// conventional BTB (size + kind per entry) plus the FTQ.
func (d *Boomerang) StorageBits() int {
	return d.bb.Entries()*(7+3) + d.ftqBits()
}
