// Package blockmap provides a small open-addressed hash table keyed by
// isa.BlockID, used for the simulator's hot per-core structures (MSHR file,
// prefetch buffer index and branch-footprint cache).
//
// The engine's steady state must not allocate: Go's built-in map allocates
// on insert and forces a heap-allocated iterator for every range, which
// dominated the tick-path allocation profile. This table stores keys and
// values in flat slices with linear probing and backward-shift deletion
// (no tombstones), so steady-state Put/Delete cycles over a bounded working
// set never touch the allocator, and lookups are one or two contiguous
// cache lines instead of a runtime map probe.
//
// Iteration order over the table is insertion-history dependent and must
// never leak into simulation results; callers that need determinism
// (checkpoint encoders, audits) collect keys with AppendKeys and sort.
package blockmap

import "dnc/internal/isa"

// minCap is the smallest table size; power of two so masking replaces
// modulo.
const minCap = 8

// Map is an open-addressed isa.BlockID-keyed hash table. The zero value is
// ready to use; New presizes one for a known working-set bound.
type Map[V any] struct {
	keys []isa.BlockID
	vals []V
	used []bool
	n    int
}

// New returns a table presized so a working set of hint entries never
// rehashes (it still grows if the hint is exceeded).
func New[V any](hint int) *Map[V] {
	m := &Map[V]{}
	m.init(capFor(hint))
	return m
}

// capFor returns the power-of-two table size for a working set of n keys,
// keeping the load factor at or below 1/2 so probe runs stay short.
func capFor(n int) int {
	c := minCap
	for c < 2*n {
		c <<= 1
	}
	return c
}

func (m *Map[V]) init(capacity int) {
	m.keys = make([]isa.BlockID, capacity)
	m.vals = make([]V, capacity)
	m.used = make([]bool, capacity)
	m.n = 0
}

// hash finalizes the block ID into a well-mixed table index base
// (splitmix64 finalizer); block IDs are sequential, so identity hashing
// would cluster every probe run.
func hash(b isa.BlockID) uint64 {
	x := uint64(b)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func (m *Map[V]) mask() uint64 { return uint64(len(m.keys) - 1) }

// Len returns the number of stored entries.
func (m *Map[V]) Len() int { return m.n }

// slot returns the index holding b, or -1.
func (m *Map[V]) slot(b isa.BlockID) int {
	if m.n == 0 {
		return -1
	}
	mask := m.mask()
	for i := hash(b) & mask; m.used[i]; i = (i + 1) & mask {
		if m.keys[i] == b {
			return int(i)
		}
	}
	return -1
}

// Get returns the value stored for b.
func (m *Map[V]) Get(b isa.BlockID) (V, bool) {
	if i := m.slot(b); i >= 0 {
		return m.vals[i], true
	}
	var zero V
	return zero, false
}

// Contains reports whether b is present.
func (m *Map[V]) Contains(b isa.BlockID) bool { return m.slot(b) >= 0 }

// Ptr returns a pointer to b's stored value for in-place mutation, or nil.
// The pointer is invalidated by the next Put or Delete.
func (m *Map[V]) Ptr(b isa.BlockID) *V {
	if i := m.slot(b); i >= 0 {
		return &m.vals[i]
	}
	return nil
}

// Put stores v for b (inserting or overwriting) and returns a pointer to
// the stored value, valid until the next Put or Delete. It only allocates
// when the table must grow past its presized capacity.
func (m *Map[V]) Put(b isa.BlockID, v V) *V {
	if m.keys == nil {
		m.init(minCap)
	}
	if 2*(m.n+1) > len(m.keys) {
		m.grow()
	}
	mask := m.mask()
	i := hash(b) & mask
	for m.used[i] {
		if m.keys[i] == b {
			m.vals[i] = v
			return &m.vals[i]
		}
		i = (i + 1) & mask
	}
	m.keys[i], m.vals[i], m.used[i] = b, v, true
	m.n++
	return &m.vals[i]
}

// Delete removes b, reporting whether it was present. Deletion backward-
// shifts the displaced run instead of leaving tombstones, so long-lived
// tables never degrade.
func (m *Map[V]) Delete(b isa.BlockID) bool {
	i := m.slot(b)
	if i < 0 {
		return false
	}
	mask := m.mask()
	var zero V
	hole := uint64(i)
	for j := (hole + 1) & mask; m.used[j]; j = (j + 1) & mask {
		// An entry may fill the hole only if its home position does not lie
		// strictly inside (hole, j] — otherwise moving it would break its
		// own probe chain.
		home := hash(m.keys[j]) & mask
		if (j-home)&mask >= (j-hole)&mask {
			m.keys[hole], m.vals[hole] = m.keys[j], m.vals[j]
			hole = j
		}
	}
	m.keys[hole], m.vals[hole], m.used[hole] = 0, zero, false
	m.n--
	return true
}

// grow doubles the table and reinserts every entry.
func (m *Map[V]) grow() {
	ok, ov, ou := m.keys, m.vals, m.used
	m.init(2 * len(ok))
	for i, u := range ou {
		if u {
			m.Put(ok[i], ov[i])
		}
	}
}

// Clear removes every entry, keeping the table's capacity.
func (m *Map[V]) Clear() {
	clear(m.keys)
	clear(m.vals)
	clear(m.used)
	m.n = 0
}

// AppendKeys appends every stored key to dst and returns it. The order is
// table order (not deterministic across histories); callers sort before
// using it for anything that must be reproducible.
func (m *Map[V]) AppendKeys(dst []isa.BlockID) []isa.BlockID {
	for i, u := range m.used {
		if u {
			dst = append(dst, m.keys[i])
		}
	}
	return dst
}

// Range calls fn for every entry in table order (not deterministic across
// histories; see AppendKeys). fn must not mutate the map.
func (m *Map[V]) Range(fn func(b isa.BlockID, v V)) {
	for i, u := range m.used {
		if u {
			fn(m.keys[i], m.vals[i])
		}
	}
}
