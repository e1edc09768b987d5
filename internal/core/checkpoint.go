package core

import (
	"fmt"
	"sort"

	"dnc/internal/blockmap"
	"dnc/internal/cache"
	"dnc/internal/checkpoint"
	"dnc/internal/isa"
)

// State walks the core's full architectural and timing state: the
// predictors, both L1s, the MSHR file, the prefetch buffer, fetch state, the
// ROB ring, the metric counters, and the attached design; loading needs an
// identically configured core (same design, geometry, and workload binding).
// Snapshots are taken between Tick calls, so the per-cycle bookkeeping
// fields (delivered, transitions, cycleCause) are ephemeral and excluded, as
// are the observability hooks — diagnostics, not architectural state.
func (c *Core) State(cp *checkpoint.Codec) {
	cp.Begin("core")
	c.tage.State(cp)
	c.ras.State(cp)
	c.l1i.State(cp)
	c.l1d.State(cp)
	c.mshr.State(cp)

	if checkpoint.Same(cp, "prefetch-buffer presence", c.pfb != nil, cp.Bool) {
		if cp.Loading() {
			c.pfb.Clear()
			c.pfbOrder, c.pfbHead = c.pfbOrder[:0], 0
		}
		// FIFO order, oldest first: (block, fill latency) pairs.
		live := c.pfbLive()
		checkpoint.Slice(cp, "prefetch buffer", &live, 16, c.pfbCap, func(b *isa.BlockID) {
			checkpoint.Word(cp, b)
			lat, _ := c.pfb.Get(*b)
			cp.U64(&lat)
			if cp.Loading() {
				c.pfb.Put(*b, lat)
			}
		})
		if cp.Loading() {
			c.pfbOrder = live
		}
	}

	blockTabState(cp, "prefetch-latency table", &c.prefLat, cp.U64)

	if checkpoint.Same(cp, "footprint-cache presence", c.bfCache != nil, cp.Bool) {
		blockTabState(cp, "footprint cache", c.bfCache, func(bf *isa.BF) {
			packed := bf.Pack()
			cp.U32(&packed)
			if cp.Loading() {
				*bf = isa.UnpackBF(packed)
			}
		})
	}

	cp.U64(&c.cycle)
	c.step.State(cp)
	cp.Bool(&c.haveStep)
	checkpoint.Word(cp, &c.last2[0])
	checkpoint.Word(cp, &c.last2[1])
	checkpoint.Word(cp, &c.curBlock)
	cp.Bool(&c.haveCur)
	cp.Bool(&c.gateDone)
	cp.Bool(&c.waiting)
	checkpoint.Word(cp, &c.waitBlk)
	cp.U64(&c.stallUntil)
	cp.Bool(&c.stallBTB)

	cp.Fixed("ROB entries", len(c.rob))
	cp.Int(&c.robHead)
	cp.Int(&c.robCount)
	if cp.Loading() {
		if cp.Err() == nil && (c.robHead < 0 || c.robHead >= len(c.rob) || c.robCount < 0 || c.robCount > len(c.rob)) {
			cp.Corrupt("ROB ring position head=%d count=%d out of range", c.robHead, c.robCount)
		}
		if cp.Err() != nil {
			return
		}
		clear(c.rob)
	}
	for i := 0; i < c.robCount; i++ {
		en := &c.rob[(c.robHead+i)%len(c.rob)]
		cp.U64(&en.complete)
		checkpoint.Word(cp, &en.inst.PC)
		cp.U8(&en.inst.Size)
		checkpoint.Byte(cp, &en.inst.Kind)
		checkpoint.Word(cp, &en.inst.Target)
		cp.Bool(&en.taken)
		checkpoint.Word(cp, &en.target)
	}

	cp.Bool(&c.startup)
	cp.U64(&c.totalRetired)
	cp.U64(&c.totalDelivered)
	cp.Struct(&c.M)
	c.design.State(cp)
	cp.End()
	if cp.Loading() {
		// Fast-forward state is not checkpointed: the first full Tick after a
		// restore recomputes it, and every skipped cycle it stood for is
		// equivalent to a full stalled Tick, so resumed runs stay bit-exact.
		c.idleWake = 0
	}
}

// blockTabState walks a block-keyed table in ascending key order (table
// iteration order is history-dependent; the encoding must not be).
func blockTabState[V any](c *checkpoint.Codec, what string, m *blockmap.Map[V], val func(*V)) {
	checkpoint.Map(c, what, m.AppendKeys(nil), 9, checkpoint.Unbounded, m.Clear, func(b isa.BlockID) {
		// Walk the value in its slot, made first if b is new (loading).
		v := m.Ptr(b)
		if v == nil {
			var zero V
			v = m.Put(b, zero)
		}
		val(v)
	})
}

// Audit checks the core's structural invariants at a tick boundary. Each
// violation is returned as its own error:
//
//   - ROB conservation: every delivered instruction is either retired or
//     still occupies a ROB slot (totalDelivered - totalRetired == robCount),
//     and the ring position is within bounds;
//   - stall-attribution conservation: every measured cycle is either busy
//     (delivered at least one instruction) or charged to exactly one stall
//     cause (BusyCycles + StallCycles == Cycles);
//   - the prefetch buffer's FIFO order and map agree, occupancy is within
//     capacity, and no buffered block is simultaneously resident in the L1i;
//   - every remembered prefetch-fill latency belongs to a resident,
//     still-flagged L1i line;
//   - MSHR invariants (occupancy, no leaked entries), plus exclusivity: an
//     in-flight miss must not already be resident in the L1i.
func (c *Core) Audit() []error {
	var errs []error

	if got := c.totalDelivered - c.totalRetired; got != uint64(c.robCount) {
		errs = append(errs, fmt.Errorf("core %d: ROB conservation broken: delivered %d - retired %d = %d in flight, ROB holds %d",
			c.cf.Tile, c.totalDelivered, c.totalRetired, got, c.robCount))
	}
	if c.robHead < 0 || c.robHead >= len(c.rob) || c.robCount < 0 || c.robCount > len(c.rob) {
		errs = append(errs, fmt.Errorf("core %d: ROB ring position head=%d count=%d out of range (capacity %d)",
			c.cf.Tile, c.robHead, c.robCount, len(c.rob)))
	}

	if got := c.M.BusyCycles + c.M.StallCycles(); got != c.M.Cycles {
		errs = append(errs, fmt.Errorf("core %d: stall attribution broken: busy %d + stalled %d = %d cycles, measured %d",
			c.cf.Tile, c.M.BusyCycles, c.M.StallCycles(), got, c.M.Cycles))
	}

	if c.pfb != nil {
		if c.pfb.Len() != len(c.pfbLive()) {
			errs = append(errs, fmt.Errorf("core %d: prefetch buffer map holds %d blocks but FIFO order lists %d",
				c.cf.Tile, c.pfb.Len(), len(c.pfbLive())))
		}
		if len(c.pfbLive()) > c.pfbCap {
			errs = append(errs, fmt.Errorf("core %d: prefetch buffer holds %d blocks over capacity %d",
				c.cf.Tile, len(c.pfbLive()), c.pfbCap))
		}
		for _, b := range c.pfbLive() {
			if !c.pfb.Contains(b) {
				errs = append(errs, fmt.Errorf("core %d: prefetch buffer FIFO lists block %#x missing from the map",
					c.cf.Tile, uint64(b)))
			}
			if c.l1i.Contains(b) {
				errs = append(errs, fmt.Errorf("core %d: block %#x resident in both prefetch buffer and L1i",
					c.cf.Tile, uint64(b)))
			}
		}
	}

	prefBlocks := c.prefLat.AppendKeys(make([]isa.BlockID, 0, c.prefLat.Len()))
	sort.Slice(prefBlocks, func(i, j int) bool { return prefBlocks[i] < prefBlocks[j] })
	for _, b := range prefBlocks {
		line := c.l1i.Line(b)
		switch {
		case line == nil:
			errs = append(errs, fmt.Errorf("core %d: prefetch latency remembered for block %#x not resident in L1i",
				c.cf.Tile, uint64(b)))
		case line.Flags&cache.FlagPrefetched == 0:
			errs = append(errs, fmt.Errorf("core %d: prefetch latency remembered for block %#x whose prefetched flag was consumed",
				c.cf.Tile, uint64(b)))
		}
	}

	errs = append(errs, c.mshr.Audit(c.cycle)...)
	for _, m := range c.mshr.All() {
		if c.l1i.Contains(m.Block) {
			errs = append(errs, fmt.Errorf("core %d: block %#x both resident in L1i and in flight in an MSHR",
				c.cf.Tile, uint64(m.Block)))
		}
	}

	if aud, ok := c.design.(interface{ Audit() []error }); ok {
		errs = append(errs, aud.Audit()...)
	}
	return errs
}
