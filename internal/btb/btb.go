// Package btb implements the branch target buffer organizations used by the
// evaluated designs: a conventional PC-indexed BTB (our proposal keeps it
// unmodified), the Confluence-like block-grained BTB prefetch buffer, a
// basic-block-oriented BTB (Boomerang), and Shotgun's split U-BTB/C-BTB/RIB
// with call/return footprints.
package btb

import "dnc/internal/isa"

// Table is a set-associative LRU table keyed by address, generic over the
// payload type. It is the building block for every BTB organization here.
//
// Keys are mirrored in a packed side array (shifted key with an always-set
// valid bit; 0 = empty way) so the way scan of a lookup touches contiguous
// words instead of striding across payload-sized records. The mirror is
// derived state, maintained by every write to a line's key/valid pair.
type Table[V any] struct {
	sets  int
	ways  int
	lines []tline[V]
	tags  []uint64 // tagKey per line; 0 = invalid
	clock uint64
}

// tagKey packs a key and an always-set valid bit into one comparable word.
func tagKey(key isa.Addr) uint64 { return uint64(key)<<1 | 1 }

type tline[V any] struct {
	key   isa.Addr
	valid bool
	lru   uint64
	val   V
}

// NewTable returns a table with the given total entries and associativity.
func NewTable[V any](entries, ways int) *Table[V] {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("btb: bad table geometry")
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic("btb: set count must be a power of two")
	}
	return &Table[V]{sets: sets, ways: ways, lines: make([]tline[V], entries), tags: make([]uint64, entries)}
}

// Entries returns the capacity.
func (t *Table[V]) Entries() int { return t.sets * t.ways }

// Ways returns the associativity.
func (t *Table[V]) Ways() int { return t.ways }

func (t *Table[V]) setOf(key isa.Addr) int {
	return int((uint64(key) >> 2) & uint64(t.sets-1))
}

func (t *Table[V]) find(key isa.Addr) *tline[V] {
	s := t.setOf(key) * t.ways
	k := tagKey(key)
	for i, tg := range t.tags[s : s+t.ways] {
		if tg == k {
			return &t.lines[s+i]
		}
	}
	return nil
}

// Lookup returns the payload for key, updating recency.
func (t *Table[V]) Lookup(key isa.Addr) (V, bool) {
	if l := t.find(key); l != nil {
		t.clock++
		l.lru = t.clock
		return l.val, true
	}
	var zero V
	return zero, false
}

// Peek returns the payload without touching recency.
func (t *Table[V]) Peek(key isa.Addr) (V, bool) {
	if l := t.find(key); l != nil {
		return l.val, true
	}
	var zero V
	return zero, false
}

// Update overwrites the payload of an existing entry without changing
// recency; it reports whether the key was present.
func (t *Table[V]) Update(key isa.Addr, val V) bool {
	if l := t.find(key); l != nil {
		l.val = val
		return true
	}
	return false
}

// Insert fills key, evicting the set's LRU entry if needed. It returns the
// evicted key when a valid entry was displaced.
func (t *Table[V]) Insert(key isa.Addr, val V) (isa.Addr, bool) {
	if l := t.find(key); l != nil {
		t.clock++
		l.lru = t.clock
		l.val = val
		return 0, false
	}
	s := t.setOf(key) * t.ways
	vi := s
	for i := s; i < s+t.ways; i++ {
		l := &t.lines[i]
		if !l.valid {
			vi = i
			break
		}
		if l.lru < t.lines[vi].lru {
			vi = i
		}
	}
	victim := &t.lines[vi]
	var evictedKey isa.Addr
	evicted := victim.valid
	if evicted {
		evictedKey = victim.key
	}
	t.clock++
	*victim = tline[V]{key: key, valid: true, lru: t.clock, val: val}
	t.tags[vi] = tagKey(key)
	return evictedKey, evicted
}

// Invalidate removes key, reporting whether it was present.
func (t *Table[V]) Invalidate(key isa.Addr) bool {
	s := t.setOf(key) * t.ways
	k := tagKey(key)
	for i, tg := range t.tags[s : s+t.ways] {
		if tg == k {
			t.lines[s+i] = tline[V]{}
			t.tags[s+i] = 0
			return true
		}
	}
	return false
}

// Entry is a conventional BTB payload: the branch kind and its last-seen
// target. The tag is the branch PC.
type Entry struct {
	Kind   isa.Kind
	Target isa.Addr
}

// BTB is the conventional program-counter-indexed BTB used by the baseline
// core and by SN4L+Dis+BTB (which deliberately leaves the BTB unmodified).
type BTB struct {
	*Table[Entry]
}

// New returns a conventional BTB with the given entries and associativity.
func New(entries, ways int) *BTB {
	return &BTB{Table: NewTable[Entry](entries, ways)}
}
