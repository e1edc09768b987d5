package prefetch

import (
	"dnc/internal/btb"
	"dnc/internal/checkpoint"
	"dnc/internal/isa"
)

// fdipWalk is the fetch-directed walk Boomerang and Shotgun share: a
// branch-prediction walk over a basic-block BTB that runs ahead of fetch,
// fills the fetch target queue (FTQ) and prefetches the blocks it enqueues.
// It holds the FTQ, the commit-time basic-block recorder, the walk point,
// the stall on a BTB miss and its retry, the FTQ gate with its squash and
// restart, the span enqueue and the speculative RAS, whose entry type is R.
// A design adds its BTB organization, its walk step (look the walk point
// up, take the basic block, follow its branch) and its miss repair (decode
// the missing block into the BTB). Its Tick spends a stalled cycle on retry
// (and repair), or else walks up to budget steps while walking reports true.
type fdipWalk[R any] struct {
	Base
	rec *bbRecorder
	q   ring[isa.BlockID] // the fetch target queue

	walkPC    isa.Addr
	walkValid bool
	stalled   bool
	stalledOn isa.BlockID
	specRAS   []R

	// budget is how many basic blocks the walk advances per cycle.
	budget int
}

// newFDIPWalk returns a walk whose recorder hands committed basic blocks to
// train (the design's BTB organization). A zero FTQ depth or budget takes
// the paper's: a 32-entry FTQ, walked two basic blocks a cycle.
func newFDIPWalk[R any](ftqEntries, budget int, train func(isa.Addr, btb.BBEntry)) fdipWalk[R] {
	if ftqEntries == 0 {
		ftqEntries = 32
	}
	if budget == 0 {
		budget = 2
	}
	return fdipWalk[R]{
		rec:    newBBRecorder(0, train),
		q:      newRing[isa.BlockID](ftqEntries),
		budget: budget,
	}
}

// QueueOccupancy implements OccupancyReporter: the FTQ's current depth.
func (w *fdipWalk[R]) QueueOccupancy() int { return w.q.len() }

// OnRetire implements Retirer: committed instructions train the BTB through
// the basic-block recorder.
func (w *fdipWalk[R]) OnRetire(inst isa.Inst, taken bool, target isa.Addr) {
	w.rec.retire(inst, taken, target)
}

// FTQGate implements Design: fetch may proceed into pc's block only when the
// walk has delivered it at the FTQ head.
func (w *fdipWalk[R]) FTQGate(pc isa.Addr) bool {
	if h, ok := w.q.front(); ok {
		if h == isa.BlockOf(pc) {
			w.q.pop()
			return true
		}
		// The walk took a diverging path: squash and restart here.
		w.restart(pc)
		return false
	}
	if !w.walkValid && !w.stalled {
		w.restart(pc)
	}
	return false
}

// OnRedirect implements Design.
func (w *fdipWalk[R]) OnRedirect(pc isa.Addr) {
	w.restart(pc)
	w.rec.redirect(pc)
}

func (w *fdipWalk[R]) restart(pc isa.Addr) {
	w.q.reset()
	w.specRAS = w.specRAS[:0]
	w.stalled = false
	w.walkPC = pc
	w.walkValid = true
}

// Quiescent implements Quiescer: Tick is a no-op only when the walk is not
// stalled (a stalled walk probes the L1i every cycle, which counts cache
// lookups) and it either has no valid PC or a full FTQ.
func (w *fdipWalk[R]) Quiescent() bool {
	return !w.stalled && (!w.walkValid || w.q.full())
}

// walking reports whether the walk may take another step this cycle.
func (w *fdipWalk[R]) walking() bool {
	return w.walkValid && !w.stalled && !w.q.full()
}

// miss handles a BTB miss at the walk point: the walk inserts nothing into
// the FTQ until the missing block is decoded. It reports true when the block
// is resident, for the design to repair the miss at once; otherwise the walk
// stalls on the block and fetches it.
func (w *fdipWalk[R]) miss() bool {
	env := w.E()
	b := isa.BlockOf(w.walkPC)
	if env.L1iContains(b) {
		return true
	}
	w.stalled = true
	w.stalledOn = b
	if !env.InFlight(b) {
		env.IssuePrefetch(b)
	}
	return false
}

// retry spends a stalled walk's cycle. It reports true once the stalled
// block is resident, for the design to repair the miss; otherwise it
// re-issues the block's fetch if none is in flight (it may have found no
// MSHR).
func (w *fdipWalk[R]) retry() bool {
	env := w.E()
	if env.L1iContains(w.stalledOn) {
		w.stalled = false
		return true
	}
	if !env.InFlight(w.stalledOn) {
		env.IssuePrefetch(w.stalledOn)
	}
	return false
}

// arrived reports whether a fill of b ends the walk's stall, for the design
// to repair the miss.
func (w *fdipWalk[R]) arrived(b isa.BlockID) bool {
	if w.stalled && b == w.stalledOn {
		w.stalled = false
		return true
	}
	return false
}

// take enqueues the basic block at start and, when it ends in a fallthrough
// or a conditional branch, moves the walk point past it. It reports false
// for the unconditional kinds, whose targets each design follows itself.
func (w *fdipWalk[R]) take(start isa.Addr, e btb.BBEntry) bool {
	w.enqueueSpan(start, e)
	switch e.Kind {
	case isa.KindALU:
		w.walkPC = e.Fallthrough(start)
	case isa.KindCondBranch:
		if w.E().PredictTaken(e.BranchPC) {
			w.walkPC = e.Target
		} else {
			w.walkPC = e.Fallthrough(start)
		}
	default:
		return false
	}
	return true
}

// enqueueSpan pushes every block the basic block touches into the FTQ and
// prefetches the absent ones.
func (w *fdipWalk[R]) enqueueSpan(start isa.Addr, e btb.BBEntry) {
	env := w.E()
	size := max(isa.Addr(e.Size), 1)
	for b, last := isa.BlockOf(start), isa.BlockOf(start+size-1); b <= last; b++ {
		w.enqueue(b)
		prefetchAbsent(env, b)
	}
}

// enqueue pushes b onto the FTQ unless it repeats the tail block (a basic
// block that starts in the block the last one ended in).
func (w *fdipWalk[R]) enqueue(b isa.BlockID) {
	if tail, ok := w.q.back(); !ok || tail != b {
		w.q.push(b)
	}
}

// pushRAS pushes a call's return onto the 16-entry speculative RAS.
func (w *fdipWalk[R]) pushRAS(r R) { w.specRAS = pushBounded(w.specRAS, r, 16) }

// popRAS pops the speculative RAS for a return. On an empty stack the walk
// has nothing to follow and waits for the next redirect.
func (w *fdipWalk[R]) popRAS() (R, bool) {
	r, ok := pop(&w.specRAS)
	if !ok {
		w.walkValid = false
	}
	return r, ok
}

// ftqBits is the FTQ's storage: a 46-bit block address per entry.
func (w *fdipWalk[R]) ftqBits() int { return w.q.cap() * 46 }

// state walks the recorder, the FTQ and the walk point; the design walks its
// speculative RAS next.
func (w *fdipWalk[R]) state(c *checkpoint.Codec) {
	w.rec.state(c)
	w.q.state(c, "FTQ", 8, func(b *isa.BlockID) { checkpoint.Word(c, b) })
	checkpoint.Word(c, &w.walkPC)
	c.Bool(&w.walkValid)
	c.Bool(&w.stalled)
	checkpoint.Word(c, &w.stalledOn)
}
