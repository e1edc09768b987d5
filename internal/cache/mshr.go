package cache

import (
	"fmt"
	"sort"

	"dnc/internal/blockmap"
	"dnc/internal/checkpoint"
	"dnc/internal/isa"
)

// MSHR tracks one in-flight miss.
type MSHR struct {
	Block isa.BlockID
	// IssueCycle is when the request left for the lower hierarchy.
	IssueCycle uint64
	// ReadyCycle is when the fill arrives.
	ReadyCycle uint64
	// Prefetch reports whether the request was initiated by a prefetcher
	// (and not yet merged with a demand).
	Prefetch bool
	// Demanded records whether a demand access merged into this miss while
	// it was in flight; used for partial-coverage accounting.
	Demanded bool
	// Buffered is set on every prefetch of a core with a prefetch buffer,
	// whose fill then goes to the buffer instead of the L1i; the core routes
	// by its own buffer, so the bit is kept only for the snapshot layout.
	// Delete it, and its walk in MSHRFile.State, at the next
	// checkpoint.Version bump.
	Buffered bool
}

// Latency returns the full fetch latency of the request.
func (m *MSHR) Latency() uint64 { return m.ReadyCycle - m.IssueCycle }

// demandSlack bounds how far AllocDemand may push occupancy past the
// nominal capacity (it deliberately bypasses the capacity check so a
// prefetch-saturated file cannot deadlock fetch); Audit enforces it.
const demandSlack = 64

// MSHRFile is a fixed-capacity set of in-flight misses indexed by block.
// Entries live in an open-addressed table (internal/blockmap) presized for
// capacity plus the demand-reservation slack, so steady-state operation
// never allocates; the file additionally keeps a binary min-heap of
// (ReadyCycle, Block) keys so the earliest outstanding fill is a peek and
// the due entries of a cycle pop off in exactly the deterministic
// fill-application order, with no per-cycle table scan.
//
// The heap uses lazy deletion: Free leaves the key in place and EarliestReady
// discards keys whose block no longer has a live entry with that ready time.
// ReadyCycle changes after allocation only through SetReady, which pushes the
// new key and so leaves the old one stale: a live entry's heap key is always
// exact and the heap minimum over non-stale keys is the true minimum.
type MSHRFile struct {
	cap     int
	entries blockmap.Map[MSHR]
	// highWater is the peak occupancy since the last ResetHighWater; a
	// diagnostic (not architectural state, not checkpointed).
	highWater int

	// heap holds one (ReadyCycle, Block) key per live entry, plus any
	// not-yet-discarded stale keys, ordered by (ready, block).
	heap []mshrKey

	// headKey/headOK memoize head()'s answer while headValid, so the
	// per-cycle EarliestReady/Ready peeks cost a branch instead of a hash
	// probe. Invalidated by anything that can change the minimum live key:
	// pop, freeing the head's block, Reset (a loading State resets). push
	// keeps it valid by folding the new key in (a push can only lower the
	// minimum).
	headKey   mshrKey
	headOK    bool
	headValid bool

	// scratch backs the slice returned by Ready, reused across calls.
	scratch []MSHR
}

// mshrKey orders the ready heap: earliest ready first, block ID breaking
// ties — the required deterministic fill order.
type mshrKey struct {
	ready uint64
	block isa.BlockID
}

func (k mshrKey) less(o mshrKey) bool {
	return k.ready < o.ready || (k.ready == o.ready && k.block < o.block)
}

// NewMSHRFile returns a file with the given capacity.
func NewMSHRFile(capacity int) *MSHRFile {
	f := &MSHRFile{cap: capacity}
	f.entries = *blockmap.New[MSHR](capacity + demandSlack)
	f.scratch = make([]MSHR, 0, capacity+demandSlack)
	// Room for a stale key beside every live one: what SetReady leaves behind.
	f.heap = make([]mshrKey, 0, 2*(capacity+demandSlack))
	return f
}

// push adds a key, restoring the heap order.
func (f *MSHRFile) push(k mshrKey) {
	if f.headValid && (!f.headOK || k.less(f.headKey)) {
		f.headKey, f.headOK = k, true
	}
	f.heap = append(f.heap, k)
	i := len(f.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !f.heap[i].less(f.heap[p]) {
			break
		}
		f.heap[i], f.heap[p] = f.heap[p], f.heap[i]
		i = p
	}
}

// pop removes the minimum key, restoring the heap order.
func (f *MSHRFile) pop() {
	f.headValid = false
	n := len(f.heap) - 1
	f.heap[0] = f.heap[n]
	f.heap = f.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && f.heap[l].less(f.heap[m]) {
			m = l
		}
		if r < n && f.heap[r].less(f.heap[m]) {
			m = r
		}
		if m == i {
			return
		}
		f.heap[i], f.heap[m] = f.heap[m], f.heap[i]
		i = m
	}
}

// head discards stale keys and returns the minimum live one, with ok=false
// on an empty (or all-stale) heap. A key is live while its block's entry
// still has that exact ready time; Free never re-inserts keys, so each
// stale key is discarded at most once.
func (f *MSHRFile) head() (mshrKey, bool) {
	if f.headValid {
		return f.headKey, f.headOK
	}
	for len(f.heap) > 0 {
		k := f.heap[0]
		if m := f.entries.Ptr(k.block); m != nil && m.ReadyCycle == k.ready {
			f.headKey, f.headOK, f.headValid = k, true, true
			return k, true
		}
		f.pop()
	}
	f.headKey, f.headOK, f.headValid = mshrKey{}, false, true
	return mshrKey{}, false
}

// Cap returns the capacity.
func (f *MSHRFile) Cap() int { return f.cap }

// Len returns the number of in-flight misses.
func (f *MSHRFile) Len() int { return f.entries.Len() }

// Full reports whether no further miss can be allocated.
func (f *MSHRFile) Full() bool { return f.entries.Len() >= f.cap }

// Lookup returns the in-flight entry for b, if any. The pointer is
// invalidated by the next Alloc, AllocDemand, Free, Reset, or loading State.
func (f *MSHRFile) Lookup(b isa.BlockID) (*MSHR, bool) {
	m := f.entries.Ptr(b)
	return m, m != nil
}

// noteInsert registers a new entry's ready key.
func (f *MSHRFile) noteInsert(b isa.BlockID, ready uint64) {
	if f.entries.Len() > f.highWater {
		f.highWater = f.entries.Len()
	}
	f.push(mshrKey{ready: ready, block: b})
}

// Alloc registers a new in-flight miss. It returns nil if the file is full
// or the block already has an entry (callers merge via Lookup first). The
// pointer has the same validity as Lookup's.
func (f *MSHRFile) Alloc(b isa.BlockID, issue, ready uint64, prefetch bool) *MSHR {
	if f.Full() {
		return nil
	}
	if f.entries.Contains(b) {
		return nil
	}
	m := f.entries.Put(b, MSHR{Block: b, IssueCycle: issue, ReadyCycle: ready, Prefetch: prefetch})
	f.noteInsert(b, ready)
	return m
}

// AllocDemand registers a demand miss, bypassing the capacity check: the
// fetch unit reserves a slot for the demand stream, so a prefetch-saturated
// file cannot deadlock fetch. It still returns nil for duplicates.
func (f *MSHRFile) AllocDemand(b isa.BlockID, issue, ready uint64) *MSHR {
	if f.entries.Contains(b) {
		return nil
	}
	m := f.entries.Put(b, MSHR{Block: b, IssueCycle: issue, ReadyCycle: ready})
	f.noteInsert(b, ready)
	return m
}

// SetReady moves b's in-flight fill to arrive at ready instead, re-keying it
// in the ready heap (a no-op when b has no entry). The sharded engine uses it
// to replace a provisional ready cycle with the shared fabric's true reply.
func (f *MSHRFile) SetReady(b isa.BlockID, ready uint64) {
	m := f.entries.Ptr(b)
	if m == nil || m.ReadyCycle == ready {
		return
	}
	m.ReadyCycle = ready
	f.headValid = false
	f.push(mshrKey{ready: ready, block: b})
}

// HighWater returns the peak occupancy since the last ResetHighWater.
func (f *MSHRFile) HighWater() int { return f.highWater }

// ResetHighWater restarts peak-occupancy tracking (window boundary).
func (f *MSHRFile) ResetHighWater() { f.highWater = f.entries.Len() }

// Free releases the entry for b (at fill time). The heap key, if still
// present, goes stale and is discarded on a later head scan.
func (f *MSHRFile) Free(b isa.BlockID) {
	if f.headValid && f.headOK && f.headKey.block == b {
		f.headValid = false
	}
	f.entries.Delete(b)
}

// EarliestReady returns the minimum ReadyCycle over all in-flight entries
// and whether any entry exists. It is the MSHR contribution to a stalled
// core's next-wakeup time.
func (f *MSHRFile) EarliestReady() (uint64, bool) {
	if f.entries.Len() == 0 {
		return 0, false
	}
	k, ok := f.head()
	return k.ready, ok
}

// Ready returns all entries whose fill has arrived by the given cycle, in
// arrival order (ties broken by block ID). The order must not depend on
// table iteration: fill processing mutates design state, so an arbitrary
// order makes otherwise identical runs diverge. The returned entries are
// copies backed by a buffer reused on the next Ready call; callers MUST free
// each original by block after applying its fill — the due keys pop off the
// heap here, so an entry left in the table would drop out of EarliestReady.
// (A freed-then-reallocated block gets a fresh key; identical duplicate keys
// pop adjacently and collapse to one entry.)
func (f *MSHRFile) Ready(cycle uint64) []MSHR {
	k, ok := f.head()
	if !ok || k.ready > cycle {
		return nil
	}
	out := f.scratch[:0]
	last := mshrKey{ready: ^uint64(0)}
	for {
		f.pop()
		if k != last {
			out = append(out, *f.entries.Ptr(k.block))
			last = k
		}
		if k, ok = f.head(); !ok || k.ready > cycle {
			break
		}
	}
	f.scratch = out
	return out
}

// All returns every in-flight entry in (ReadyCycle, Block) order without
// disturbing the heap — the audit-path counterpart of Ready.
func (f *MSHRFile) All() []MSHR {
	out := f.scratch[:0]
	f.entries.Range(func(_ isa.BlockID, m MSHR) {
		out = append(out, m)
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		return a.ReadyCycle < b.ReadyCycle ||
			(a.ReadyCycle == b.ReadyCycle && a.Block < b.Block)
	})
	f.scratch = out
	return out
}

// Reset drops all in-flight entries.
func (f *MSHRFile) Reset() {
	f.entries.Clear()
	f.heap = f.heap[:0]
	f.headValid = false
}

// State walks the file's capacity and every in-flight entry, in ascending
// block order so the encoding is byte-deterministic.
func (f *MSHRFile) State(c *checkpoint.Codec) {
	c.Begin("mshr")
	c.Fixed("MSHR capacity", f.cap)
	checkpoint.Map(c, "MSHR file", f.entries.AppendKeys(nil), 8*3+3, checkpoint.Unbounded, f.Reset,
		func(b isa.BlockID) {
			m := MSHR{Block: b}
			if !c.Loading() {
				m = *f.entries.Ptr(b)
			}
			c.U64(&m.IssueCycle)
			c.U64(&m.ReadyCycle)
			c.Bool(&m.Prefetch)
			c.Bool(&m.Demanded)
			c.Bool(&m.Buffered)
			if !c.Loading() || c.Err() != nil {
				return
			}
			if f.entries.Contains(b) {
				c.Corrupt("duplicate MSHR entry for block %#x", uint64(b))
				return
			}
			f.entries.Put(b, m)
			f.noteInsert(b, m.ReadyCycle)
		})
	c.End()
}

// Audit checks the file's structural invariants at a tick boundary, where
// every fill due by now has been applied and freed:
//
//   - no entry's ReadyCycle precedes its IssueCycle;
//   - no entry is overdue (ReadyCycle < cycle): an overdue entry can never
//     be freed by fill processing again, i.e. it is a leaked slot;
//   - occupancy does not exceed capacity plus the demand-reservation slack
//     (AllocDemand deliberately bypasses the capacity check, at most one
//     outstanding demand per fetch engine, so a generous fixed slack bounds
//     it without false positives);
//   - the ready heap's earliest-ready time matches the actual minimum (the
//     fast-forward wakeup must never be later than a real fill).
//
// Each violation is returned as its own error.
func (f *MSHRFile) Audit(cycle uint64) []error {
	var errs []error
	if f.entries.Len() > f.cap+demandSlack {
		errs = append(errs, fmt.Errorf("mshr: %d entries in flight exceeds capacity %d plus demand slack %d",
			f.entries.Len(), f.cap, demandSlack))
	}
	var min uint64
	haveMin := false
	for _, m := range f.All() {
		if m.ReadyCycle < m.IssueCycle {
			errs = append(errs, fmt.Errorf("mshr: block %#x ready at %d before its issue at %d",
				uint64(m.Block), m.ReadyCycle, m.IssueCycle))
		}
		if m.ReadyCycle < cycle {
			errs = append(errs, fmt.Errorf("mshr: block %#x overdue (ready %d < cycle %d): leaked entry",
				uint64(m.Block), m.ReadyCycle, cycle))
		}
		if !haveMin || m.ReadyCycle < min {
			min, haveMin = m.ReadyCycle, true
		}
	}
	if got, ok := f.EarliestReady(); ok != haveMin || (ok && got != min) {
		errs = append(errs, fmt.Errorf("mshr: heap earliest ready (%d, %v) disagrees with scan (%d, %v)",
			got, ok, min, haveMin))
	}
	return errs
}
