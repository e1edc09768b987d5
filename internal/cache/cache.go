// Package cache implements the set-associative structures of the frontend
// and the memory hierarchy: one generic LRU table that is the L1 caches
// (with per-line metadata hooks — prefetch flags, SN4L's 4-bit local
// prefetch status) and every BTB organization, and a miss-status holding
// register (MSHR) file that merges demand requests into in-flight prefetches
// — the mechanism behind partially covered miss latency (the paper's CMAL
// and FSCR metrics).
package cache

import (
	"fmt"

	"dnc/internal/checkpoint"
	"dnc/internal/isa"
)

// Table is a set-associative LRU table keyed by K, generic over the
// payload type V. It is the L1i and L1d (Cache) and the building block of
// every BTB organization.
//
// A line is three packed words and a payload: its tag (key<<1|1, 0 = empty
// way) — the only copy of the line's key and valid bit —, its recency clock
// (0 = empty; the clock starts at 1) and its V. A lookup scans contiguous
// tags instead of striding across payload-sized records, and a fill picks
// its victim in the same scan: empty ways carry recency 0, so the leftmost
// minimum is the first-empty-else-LRU way.
type Table[K ~uint64, V any] struct {
	sets  int
	ways  int
	shift uint   // index rule: set = key>>shift & (sets-1)
	tag   string // checkpoint section tag
	tags  []uint64
	lrus  []uint64
	vals  []V
	hints []uint8 // last way a lookup hit per set — a guess, checked against tags
	clock uint64
}

// Line is the payload of an L1 cache line.
type Line struct {
	// Flags holds Flag* bits.
	Flags uint8
	// Aux is free per-line metadata; SN4L stores its 4-bit local prefetch
	// status here.
	Aux uint8
	// Lat is a prefetched line's fill latency, read by the first demand hit
	// (the covered part of CMAL); 0 on every other line.
	Lat uint64
}

// Line flag bits.
const (
	// FlagPrefetched marks a line brought in by a prefetcher and not yet
	// demanded (the paper's 1-bit isPrefetch flag).
	FlagPrefetched uint8 = 1 << iota
	// FlagInstruction marks instruction lines (used by DV-LLC's
	// isInstruction OR).
	FlagInstruction
)

// Cache is an L1 cache: a table of 64-byte blocks indexed by block number.
type Cache = Table[isa.BlockID, Line]

// Evicted describes an L1 victim line, as designs are told of it.
type Evicted struct {
	Block isa.BlockID
	Flags uint8
	Aux   uint8
}

// New returns an L1 cache of the given total size and associativity. Size
// must be a multiple of ways*64 and the resulting set count a power of two.
func New(sizeBytes, ways int) *Cache {
	if sizeBytes <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache: bad geometry size=%d ways=%d", sizeBytes, ways))
	}
	sets := sizeBytes / isa.BlockBytes / ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two (size=%d ways=%d)",
			sets, sizeBytes, ways))
	}
	return newTable[isa.BlockID, Line](sets, ways, 0, "cache")
}

// NewTable returns a PC-keyed table with the given total entries and
// associativity, indexed by key>>2 (instruction granularity).
func NewTable[V any](entries, ways int) *Table[isa.Addr, V] {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("cache: bad table geometry")
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic("cache: table set count must be a power of two")
	}
	return newTable[isa.Addr, V](sets, ways, 2, "table")
}

func newTable[K ~uint64, V any](sets, ways int, shift uint, tag string) *Table[K, V] {
	n := sets * ways
	return &Table[K, V]{sets: sets, ways: ways, shift: shift, tag: tag,
		tags: make([]uint64, n), lrus: make([]uint64, n), vals: make([]V, n),
		hints: make([]uint8, sets)}
}

// tagOf packs a key and an always-set valid bit into one comparable word,
// so a probe is a single equality test per way and an empty way (0) never
// matches.
func tagOf[K ~uint64](key K) uint64 { return uint64(key)<<1 | 1 }

// Entries returns the capacity.
func (t *Table[K, V]) Entries() int { return t.sets * t.ways }

// Ways returns the associativity.
func (t *Table[K, V]) Ways() int { return t.ways }

func (t *Table[K, V]) setOf(key K) int { return int(uint64(key) >> t.shift & uint64(t.sets-1)) }

// find returns the line index holding key, or -1. The per-set MRU hint
// short-circuits the way scan for re-probes of a recently found key; a
// stale hint costs a scan but can never misidentify a line.
func (t *Table[K, V]) find(key K) int {
	si := t.setOf(key)
	s := si * t.ways
	k := tagOf(key)
	if h := int(t.hints[si]); h < t.ways && t.tags[s+h] == k {
		return s + h
	}
	for i, tg := range t.tags[s : s+t.ways] {
		if tg == k {
			t.hints[si] = uint8(i)
			return s + i
		}
	}
	return -1
}

// touch makes line i the most recently used.
func (t *Table[K, V]) touch(i int) {
	t.clock++
	t.lrus[i] = t.clock
}

// Contains reports residency without touching recency (a "peek", as used
// by prefetchers probing the cache).
func (t *Table[K, V]) Contains(key K) bool { return t.find(key) >= 0 }

// Line returns the resident payload for key, or nil. It does not touch
// recency.
func (t *Table[K, V]) Line(key K) *V {
	if i := t.find(key); i >= 0 {
		return &t.vals[i]
	}
	return nil
}

// Peek returns the payload for key without touching recency.
func (t *Table[K, V]) Peek(key K) (V, bool) {
	if i := t.find(key); i >= 0 {
		return t.vals[i], true
	}
	var zero V
	return zero, false
}

// Access performs a demand lookup: on a hit it promotes the line to MRU
// and returns its payload; on a miss it returns nil.
func (t *Table[K, V]) Access(key K) *V {
	i := t.find(key)
	if i < 0 {
		return nil
	}
	t.touch(i)
	return &t.vals[i]
}

// Lookup returns the payload for key, updating recency.
func (t *Table[K, V]) Lookup(key K) (V, bool) {
	if v := t.Access(key); v != nil {
		return *v, true
	}
	var zero V
	return zero, false
}

// Update overwrites the payload of a resident key without changing
// recency; it reports whether the key was present.
func (t *Table[K, V]) Update(key K, val V) bool {
	if i := t.find(key); i >= 0 {
		t.vals[i] = val
		return true
	}
	return false
}

// slot returns the line holding key and true, or the way Insert fills and
// false: the leftmost minimum of the set's recency array, i.e. the first
// empty way, else the LRU way. One scan finds both.
func (t *Table[K, V]) slot(key K) (int, bool) {
	si := t.setOf(key)
	s := si * t.ways
	k := tagOf(key)
	if h := int(t.hints[si]); h < t.ways && t.tags[s+h] == k {
		return s + h, true
	}
	vi := s
	for i, tg := range t.tags[s : s+t.ways] {
		if tg == k {
			t.hints[si] = uint8(i)
			return s + i, true
		}
		if t.lrus[s+i] < t.lrus[vi] {
			vi = s + i
		}
	}
	return vi, false
}

// Insert fills key, evicting the set's victim if the set is full. Filling
// a resident key is a touch that keeps its payload; a new line starts with
// the zero payload. It returns the key's payload and, when a valid line was
// displaced, the victim's key and payload (evicted reports whether they are
// meaningful). The victim is returned by value so a fill never allocates.
func (t *Table[K, V]) Insert(key K) (v *V, victim K, old V, evicted bool) {
	i, hit := t.slot(key)
	if !hit {
		if tg := t.tags[i]; tg != 0 {
			victim, old, evicted = K(tg>>1), t.vals[i], true
		}
		t.fill(i, key)
	}
	t.touch(i)
	return &t.vals[i], victim, old, evicted
}

// fill installs key with the zero payload in line i.
func (t *Table[K, V]) fill(i int, key K) {
	var zero V
	t.tags[i], t.vals[i] = tagOf(key), zero
}

// Put fills key with val: an Insert that overwrites the payload, resident
// or not. It returns the displaced key when a valid line was evicted.
func (t *Table[K, V]) Put(key K, val V) (victim K, evicted bool) {
	v, victim, _, evicted := t.Insert(key)
	*v = val
	return victim, evicted
}

// AccessOrInsert is Access followed, on a miss, by Insert, dropping the
// victim: it reports a hit, promoting the line to MRU, or fills key with
// the zero payload. Clock, recency and payloads end exactly as the two
// calls leave them.
func (t *Table[K, V]) AccessOrInsert(key K) (hit bool) {
	i, hit := t.slot(key)
	if !hit {
		t.fill(i, key)
	}
	t.touch(i)
	return hit
}

// Invalidate removes key if resident, returning whether it was.
func (t *Table[K, V]) Invalidate(key K) bool {
	i := t.find(key)
	if i < 0 {
		return false
	}
	var zero V
	t.tags[i], t.lrus[i], t.vals[i] = 0, 0, zero
	return true
}

// Reset empties every line.
func (t *Table[K, V]) Reset() {
	clear(t.tags)
	clear(t.lrus)
	clear(t.vals)
	t.clock = 0
}

// State walks the table's full state (geometry, clock, then per line its
// key, valid bit, recency and payload) for checkpointing; val walks one
// payload. The snapshot's geometry must match the receiver's: snapshots
// restore into an identically configured machine, they do not reconfigure
// it.
func (t *Table[K, V]) State(c *checkpoint.Codec, val func(*checkpoint.Codec, *V)) {
	c.Begin(t.tag)
	c.Fixed("table sets", t.sets)
	c.Fixed("table ways", t.ways)
	c.U64(&t.clock)
	for i := range t.tags {
		key, valid, lru := K(t.tags[i]>>1), t.tags[i] != 0, t.lrus[i]
		checkpoint.Word(c, &key)
		c.Bool(&valid)
		c.U64(&lru)
		val(c, &t.vals[i])
		if c.Loading() {
			t.tags[i], t.lrus[i] = 0, 0
			if valid {
				t.tags[i], t.lrus[i] = tagOf(key), lru
			}
		}
	}
	c.End()
}

// LineState walks an L1 line's payload.
func LineState(c *checkpoint.Codec, l *Line) {
	c.U8(&l.Flags)
	c.U8(&l.Aux)
	c.U64(&l.Lat)
}
