// Package sched provides a hierarchical timing wheel: a calendar queue of
// integer IDs keyed by absolute cycle deadlines. The simulation engine uses
// it as the per-core wake schedule — each sleeping core is scheduled at the
// cycle of its next required full tick — so advancing the machine touches
// only cores with work at the current cycle.
//
// The wheel is sized for that workload: a small, fixed ID universe (one ID
// per core), deadlines that are near the cursor (wake times are bounded by
// component latencies), and a hot path that must not allocate. Schedule,
// Cancel, and cursor advancement are O(1) amortized; empty regions are
// skipped with per-level occupancy bitmaps rather than slot-by-slot
// stepping, so advancing over an arbitrarily long quiet stretch costs a few
// bitmap scans.
package sched

import (
	"fmt"
	"math/bits"

	"dnc/internal/checkpoint"
)

const (
	slotBits = 6
	slots    = 1 << slotBits // 64 slots per level
	slotMask = slots - 1
	levels   = 4 // horizon: 2^24 cycles ahead of the cursor
)

// horizon is the furthest a deadline may lie ahead of the cursor.
const horizon = 1 << (slotBits * levels)

// Wheel is a hierarchical timing wheel over a fixed universe of integer
// IDs. Each ID holds at most one deadline at a time (scheduling again moves
// it). Not safe for concurrent use.
type Wheel struct {
	now uint64 // cursor: all deadlines < now have fired

	// Per-ID intrusive doubly-linked list nodes (slot chains), plus the
	// deadline and membership flag. Fixed at construction: no allocation on
	// Schedule/Cancel/AdvanceTo.
	deadline []uint64
	next     []int32
	prev     []int32 // ^slotIndex when the node is a chain head
	member   []bool

	// head[l][s] is the first ID chained in level l, slot s (-1 when
	// empty); occ[l] is the bitmap of nonempty slots in level l.
	head [levels][slots]int32
	occ  [levels]uint64

	count   int
	scratch []int // due-ID buffer reused across AdvanceTo calls

	// memo caches Next's answer while memoValid: memo is the exact minimum
	// pending deadline (count > 0 implied). Kept valid across the common
	// mutations — scheduling a later deadline leaves it untouched, an
	// earlier one lowers it in place — and dropped whenever the entry that
	// holds the minimum moves, cancels, or fires.
	memo      uint64
	memoValid bool
}

// NewWheel returns a wheel over IDs 0..ids-1 with the cursor at cycle 0.
func NewWheel(ids int) *Wheel {
	if ids <= 0 {
		panic(fmt.Sprintf("sched: NewWheel(%d): need at least one ID", ids))
	}
	w := &Wheel{
		deadline: make([]uint64, ids),
		next:     make([]int32, ids),
		prev:     make([]int32, ids),
		member:   make([]bool, ids),
		scratch:  make([]int, 0, ids),
	}
	for l := 0; l < levels; l++ {
		for s := 0; s < slots; s++ {
			w.head[l][s] = -1
		}
	}
	return w
}

// IDs returns the size of the ID universe.
func (w *Wheel) IDs() int { return len(w.deadline) }

// Now returns the cursor: the cycle the wheel has advanced to.
func (w *Wheel) Now() uint64 { return w.now }

// Len returns the number of scheduled IDs.
func (w *Wheel) Len() int { return w.count }

// Scheduled returns id's pending deadline, if any.
func (w *Wheel) Scheduled(id int) (uint64, bool) {
	if !w.member[id] {
		return 0, false
	}
	return w.deadline[id], true
}

// levelSlot places a deadline relative to the cursor: the level whose slot
// granularity still distinguishes it from the cursor, and the slot index
// within that level.
func (w *Wheel) levelSlot(deadline uint64) (int, int) {
	delta := deadline - w.now
	for l := 0; l < levels; l++ {
		if delta < 1<<(slotBits*(l+1)) {
			return l, int(deadline >> (slotBits * l) & slotMask)
		}
	}
	panic(fmt.Sprintf("sched: deadline %d is %d cycles past the cursor (horizon %d)",
		deadline, delta, uint64(horizon)))
}

// link pushes id onto the chain of (level, slot).
func (w *Wheel) link(id int, level, slot int) {
	si := int32(level*slots + slot)
	h := w.head[level][slot]
	w.next[id] = h
	w.prev[id] = ^si
	if h >= 0 {
		w.prev[h] = int32(id)
	}
	w.head[level][slot] = int32(id)
	w.occ[level] |= 1 << uint(slot)
}

// unlink removes id from whatever chain holds it.
func (w *Wheel) unlink(id int) {
	n, p := w.next[id], w.prev[id]
	if n >= 0 {
		w.prev[n] = p
	}
	if p >= 0 {
		w.next[p] = n
	} else {
		si := int(^p)
		level, slot := si/slots, si%slots
		w.head[level][slot] = n
		if n < 0 {
			w.occ[level] &^= 1 << uint(slot)
		}
	}
}

// Schedule sets id's deadline, replacing any pending one. The deadline must
// be at or after the cursor (a due-now deadline fires on the next advance)
// and within the wheel's horizon.
func (w *Wheel) Schedule(id int, deadline uint64) {
	if deadline < w.now {
		panic(fmt.Sprintf("sched: Schedule(%d, %d) behind cursor %d", id, deadline, w.now))
	}
	if w.member[id] {
		if w.memoValid && w.deadline[id] == w.memo {
			w.memoValid = false // the minimum may be moving away
		}
		w.unlink(id)
		w.count--
	}
	l, s := w.levelSlot(deadline)
	w.link(id, l, s)
	w.deadline[id] = deadline
	w.member[id] = true
	w.count++
	if w.memoValid && deadline < w.memo {
		w.memo = deadline
	} else if !w.memoValid && w.count == 1 {
		w.memo, w.memoValid = deadline, true
	}
}

// Cancel removes id's pending deadline, if any.
func (w *Wheel) Cancel(id int) {
	if !w.member[id] {
		return
	}
	if w.memoValid && w.deadline[id] == w.memo {
		w.memoValid = false
	}
	w.unlink(id)
	w.member[id] = false
	w.count--
}

// Next returns the earliest pending deadline. Cascading is lazy (entries
// move to lower levels only when the cursor reaches them in AdvanceTo), and
// an entry whose delta approaches a level's full span can share a slot with
// the cursor itself, so no single slot is guaranteed to hold the minimum:
// Next scans every occupied slot, walking chains via the occupancy bitmaps.
// That is O(pending), which the engine's use keeps trivially small (one
// entry per sleeping core); Schedule, Cancel, and the AdvanceTo firing path
// stay O(1) amortized.
// The engine calls Next once per poll boundary, usually with no mutation in
// between; the memo turns those repeats into a branch. A full scan runs only
// after the minimum entry itself moved or fired.
func (w *Wheel) Next() (uint64, bool) {
	if w.memoValid {
		return w.memo, true
	}
	if w.count == 0 {
		return 0, false
	}
	best := uint64(0)
	have := false
	for l := 0; l < levels; l++ {
		for occ := w.occ[l]; occ != 0; occ &= occ - 1 {
			s := bits.TrailingZeros64(occ)
			for id := w.head[l][s]; id >= 0; id = w.next[id] {
				if d := w.deadline[id]; !have || d < best {
					best, have = d, true
				}
			}
		}
	}
	if have {
		w.memo, w.memoValid = best, true
	}
	return best, have
}

// AdvanceTo moves the cursor to cycle `to` and returns every ID whose
// deadline is <= to, ordered by (deadline, id). The order is part of the
// contract: the engine wakes cores in a deterministic sequence regardless
// of scheduling history. The returned slice is reused by the next call.
func (w *Wheel) AdvanceTo(to uint64) []int {
	if to < w.now {
		panic(fmt.Sprintf("sched: AdvanceTo(%d) behind cursor %d", to, w.now))
	}
	due := w.scratch[:0]
	for w.count > 0 {
		d, ok := w.Next()
		if !ok || d > to {
			break
		}
		// Move the cursor to the earliest deadline, cascade every higher
		// level's cursor slot down (equal deadlines can be filed at
		// different levels depending on when they were scheduled), then
		// drain the exact level-0 slot.
		w.now = d
		for l := levels - 1; l >= 1; l-- {
			if s := int(d >> (slotBits * l) & slotMask); w.head[l][s] >= 0 {
				w.refile(l, s)
			}
		}
		s := int(d & slotMask)
		for id := w.head[0][s]; id >= 0; {
			n := w.next[id]
			if w.deadline[id] == d {
				w.unlink(int(id))
				w.member[id] = false
				w.count--
				due = append(due, int(id))
			}
			id = n
		}
		w.memoValid = false // the minimum just fired
	}
	w.now = to
	// Deadline groups were appended in increasing deadline order; sort each
	// group's IDs in place (groups are tiny — insertion sort, no allocation).
	insertionSortTail(due, w.deadline)
	w.scratch = due
	return due
}

// refile re-links every entry of (level, slot) against the current cursor,
// pushing entries into lower levels as their deadlines come near.
func (w *Wheel) refile(level, slot int) {
	id := w.head[level][slot]
	w.head[level][slot] = -1
	w.occ[level] &^= 1 << uint(slot)
	for id >= 0 {
		n := w.next[id]
		l, s := w.levelSlot(w.deadline[id])
		w.link(int(id), l, s)
		id = n
	}
}

// insertionSortTail sorts ids by (deadline, id). Deadlines arrive almost
// sorted (AdvanceTo appends in deadline order), so insertion sort is both
// allocation-free and near-linear here.
func insertionSortTail(ids []int, deadline []uint64) {
	for i := 1; i < len(ids); i++ {
		v := ids[i]
		dv := deadline[v]
		j := i - 1
		for j >= 0 && (deadline[ids[j]] > dv || (deadline[ids[j]] == dv && ids[j] > v)) {
			ids[j+1] = ids[j]
			j--
		}
		ids[j+1] = v
	}
}

// State walks the wheel (cursor plus pending deadlines) as a checkpoint
// section. Only the header is one walk: saving lists the members in ID
// order, while loading re-links each listed entry against the restored
// cursor (rebuilding the slot structure, so the encoding is independent of
// chain order) and checks it on the way in.
func (w *Wheel) State(c *checkpoint.Codec) {
	c.Begin("sched.wheel")
	ids, count := len(w.deadline), w.count
	c.U64(&w.now)
	c.Int(&ids)
	c.Int(&count)
	if !c.Loading() {
		for id := range w.deadline {
			if w.member[id] {
				c.Int(&id)
				c.U64(&w.deadline[id])
			}
		}
		c.End()
		return
	}
	switch {
	case c.Err() != nil:
		return
	case ids != len(w.deadline):
		c.Fail(fmt.Errorf("sched: snapshot has %d IDs, wheel has %d", ids, len(w.deadline)))
		return
	case count < 0 || count > ids:
		c.Fail(fmt.Errorf("sched: snapshot count %d outside 0..%d", count, ids))
		return
	}
	for l := 0; l < levels; l++ {
		for s := 0; s < slots; s++ {
			w.head[l][s] = -1
		}
		w.occ[l] = 0
	}
	clear(w.member)
	w.count = 0
	w.memoValid = false
	for i := 0; i < count; i++ {
		var id int
		var deadline uint64
		c.Int(&id)
		c.U64(&deadline)
		switch {
		case c.Err() != nil:
			return
		case id < 0 || id >= ids:
			c.Fail(fmt.Errorf("sched: snapshot ID %d outside 0..%d", id, ids-1))
			return
		case w.member[id]:
			c.Fail(fmt.Errorf("sched: snapshot repeats ID %d", id))
			return
		case deadline < w.now || deadline-w.now >= horizon:
			c.Fail(fmt.Errorf("sched: snapshot deadline %d outside cursor %d horizon", deadline, w.now))
			return
		}
		w.Schedule(id, deadline)
	}
	c.End()
}
