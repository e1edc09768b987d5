package core

import (
	"fmt"

	"dnc/internal/isa"
)

// Posted mode is how the sharded engine runs cores on several goroutines.
// A core's shared-fabric requests are the only way its timing reaches another
// core's: everything else a Tick touches is the core's own. In posted mode a
// core does not call Uncore.Access. It appends the request to its outbox and
// carries on with a provisional reply at issue + lookahead, where the
// engine's lookahead is Uncore.MinRoundTrip, the earliest any reply can
// arrive. The engine runs the cores for epochs of at most lookahead cycles,
// so no provisional value falls due inside the epoch that posted it. At the
// join it replays every outbox through Uncore.Access in the serial engines'
// contention order (Replay), and before the core ticks on, each reply
// patches what its provisional value set (Settle).
//
// This is exact. A reply never arrives earlier than the lookahead (Replay
// panics if one does), so a patch only ever moves a value later. Inside the
// epoch a provisional ready or completion cycle feeds two kinds of reads.
// "Is it due by this cycle" cannot fire before the epoch ends. The minimum in
// computeIdleWake can only wake the core early, and an early wake is a full
// Tick of a pure-stall cycle, which fast-forward's own proof shows is the
// same as a skipped one. What a provisional reply adds to a counter
// (LLCLatencySum, a late prefetch's CMAL total, a prefetch-issue event's
// latency) is corrected by the difference.
//
// A skipped window retires in place (FastForward), which is one more "is it
// due" read, of ROB completions. The engine settles a core before it
// fast-forwards it: runCore settles first, and the sync points run after the
// join has settled every core. So a window reads only the provisional
// completions of loads posted in its own epoch, and those, like their true
// values, lie past the epoch's end (a load completes no earlier than its
// issue + lookahead, and an epoch spans at most lookahead cycles). Retirement
// stops at such a load under either value, and retires exactly what the
// serial engine does.

// Patch names one kind of correction a reply makes.
type Patch uint8

const (
	// PatchReady moves an MSHR's fill to the reply.
	PatchReady Patch = 1 << iota
	// PatchComplete moves a load's ROB completion by the reply's delay.
	PatchComplete
	// PatchLatency corrects LLCLatencySum.
	PatchLatency
	// PatchCMAL corrects the CMAL total a demand charged when it merged into
	// a prefetch still in flight.
	PatchCMAL
	// PatchTrace corrects a prefetch-issue event's latency.
	PatchTrace
)

// sink is what a posted request's reply patches.
type sink uint8

const (
	sinkPrefetch  sink = iota // MSHR, LLCLatencySum, prefetch-issue event
	sinkDemand                // MSHR, LLCLatencySum
	sinkWrongPath             // MSHR
	sinkLoad                  // ROB slot
)

// request is one posted request; its position in the outbox is its order
// among the core's requests of its cycle.
type request struct {
	cycle uint64
	block isa.BlockID
	// ev is 1 + the tracer sequence number of a prefetch's issue event, 0
	// for none.
	ev     uint64
	ready  uint64 // the reply, once replayed
	slot   int32  // ROB slot of a load
	sink   sink
	isInst bool
}

// lateMerge is a demand that merged into an in-flight prefetch and charged
// the prefetch's latency, lat, to CMALTotal.
type lateMerge struct {
	block      isa.BlockID
	issue, lat uint64
}

// outbox holds one epoch's posted requests. Its slices are reused from epoch
// to epoch.
type outbox struct {
	lookahead uint64
	reqs      []request
	next      int // replay cursor
	late      []lateMerge
}

// SetPosted puts the core in posted mode with the given lookahead, or takes
// it out with 0. The engine switches only between epochs, when the outbox is
// empty.
func (c *Core) SetPosted(lookahead uint64) {
	if lookahead == 0 {
		c.post = nil
		return
	}
	if c.box.reqs == nil {
		c.box.reqs = make([]request, 0, l1iMSHRs+robEntries)
		c.box.late = make([]lateMerge, 0, l1iMSHRs)
	}
	c.box.lookahead = lookahead
	c.post = &c.box
}

// SkipPatches makes Settle leave the given corrections undone: a
// deliberately broken engine for the tests that prove the equivalence checks
// see every patch.
func (c *Core) SkipPatches(p Patch) { c.skip = p }

// access requests block b from the shared fabric and returns the cycle its
// reply arrives: from the uncore at once, or in posted mode the provisional
// issue + lookahead, which Settle corrects through s. A load's reply lands
// in the ROB slot deliver is about to fill.
func (c *Core) access(b isa.BlockID, isInst bool, s sink) uint64 {
	p := c.post
	if p == nil {
		ready, _ := c.uncore.Access(c.cf.Tile, b, c.cycle, isInst)
		return ready
	}
	r := request{cycle: c.cycle, block: b, sink: s, isInst: isInst}
	if s == sinkLoad {
		r.slot = int32(c.robTail())
	}
	p.reqs = append(p.reqs, r)
	return c.cycle + p.lookahead
}

// Posted reports whether the outbox holds requests Replay has not sent yet.
func (c *Core) Posted() bool { return c.box.next < len(c.box.reqs) }

// Replay sends the core's requests posted at cycle through the uncore, in
// the order they were posted, and records their replies for Settle: it
// touches the fabric and the outbox, nothing else of the core. The engine
// calls it for every cycle of an epoch in ascending order and, within a
// cycle, over the cores in tile order: the serial engines' contention order.
// It reports whether requests of later cycles remain.
func (c *Core) Replay(cycle uint64) bool {
	p := &c.box
	for ; p.next < len(p.reqs); p.next++ {
		r := &p.reqs[p.next]
		if r.cycle != cycle {
			if r.cycle < cycle {
				// Posted at a cycle the replay has passed: the core issued
				// it outside a Tick (a design hook inside a skipped window).
				// Waiting for its cycle would never end.
				panic(fmt.Sprintf("core: tile %d posted a request for cycle %d, which the replay at cycle %d has passed",
					c.cf.Tile, r.cycle, cycle))
			}
			return true
		}
		r.ready, _ = c.uncore.Access(c.cf.Tile, r.block, r.cycle, r.isInst)
		if r.ready < r.cycle+p.lookahead {
			panic(fmt.Sprintf("core: tile %d, cycle %d, block %#x: the uncore replied at cycle %d, inside the %d-cycle lookahead the sharded engine relies on",
				c.cf.Tile, r.cycle, uint64(r.block), r.ready, p.lookahead))
		}
	}
	return false
}

// Settle patches the replies Replay recorded into the core and empties the
// outbox for the next epoch. The engine settles a core after its epoch's
// replay and before the core ticks again or its state is observed; being the
// core's own business, that can happen on whichever goroutine runs the core
// next.
func (c *Core) Settle() {
	p := &c.box
	for i := range p.reqs {
		if r := &p.reqs[i]; r.ready != r.cycle+p.lookahead {
			c.patch(r)
		}
	}
	if c.skip&PatchCMAL == 0 {
		for _, l := range p.late {
			// A prefetch patched in an earlier epoch, or one freed and
			// reallocated since, has nothing to correct.
			if m, ok := c.mshr.Lookup(l.block); ok && m.IssueCycle == l.issue {
				c.M.CMALTotal += m.Latency() - l.lat
			}
		}
	}
	p.reqs, p.late, p.next = p.reqs[:0], p.late[:0], 0
}

// patch moves what r's provisional reply set to its true one, r.ready.
func (c *Core) patch(r *request) {
	ready := r.ready
	delay := ready - (r.cycle + c.box.lookahead)
	switch r.sink {
	case sinkLoad:
		if c.skip&PatchComplete == 0 {
			c.rob[r.slot].complete += delay
		}
		return
	case sinkPrefetch, sinkDemand:
		if c.skip&PatchLatency == 0 {
			c.M.LLCLatencySum += delay
		}
	}
	if c.skip&PatchReady == 0 {
		c.mshr.SetReady(r.block, ready)
	}
	if r.ev != 0 && c.skip&PatchTrace == 0 {
		c.hooks.Tracer.SetDur(r.ev-1, ready-r.cycle)
	}
}
