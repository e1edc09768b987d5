package prefetch

import (
	"slices"

	"dnc/internal/checkpoint"
)

// This file holds the three storage shapes the designs' tables and queues
// are built from: a page store, a direct-mapped partially tagged table over
// it, and a bounded FIFO ring. Each has its one snapshot walk here.

// pageBits sizes a page of a pages store: 16K elements, so every catalog
// table is one page, allocated by its first write well before a run's
// steady state (whose ticks allocate nothing), and an unlimited table is
// a few thousand page headers.
const (
	pageBits = 14
	pageLen  = 1 << pageBits
)

// pages is a fixed-length array of T stored in lazily allocated pages of
// pageLen elements (the last page holds the remainder). An unallocated page
// reads as blank elements, so a large table costs memory only where it is
// written.
type pages[T comparable] struct {
	pages [][]T
	n     int
	blank T
}

func newPages[T comparable](n int, blank T) pages[T] {
	return pages[T]{pages: make([][]T, (n+pageLen-1)>>pageBits), n: n, blank: blank}
}

// page returns a new blank page for page index pi.
func (p *pages[T]) page(pi int) []T {
	return slices.Repeat([]T{p.blank}, min(pageLen, p.n-pi<<pageBits))
}

// peek returns element i, or nil while its page reads as blank.
func (p *pages[T]) peek(i uint64) *T {
	if pg := p.pages[i>>pageBits]; pg != nil {
		return &pg[i&(pageLen-1)]
	}
	return nil
}

// at returns element i for writing, allocating its page.
func (p *pages[T]) at(i uint64) *T {
	pg := p.pages[i>>pageBits]
	if pg == nil {
		pg = p.page(int(i >> pageBits))
		p.pages[i>>pageBits] = pg
	}
	return &pg[i&(pageLen-1)]
}

// state walks every element in order through walk; an unallocated page
// walks as the blank elements it reads as, and a load allocates only the
// pages that differ from blank.
func (p *pages[T]) state(walk func(*T)) {
	var spare []T
	for pi, pg := range p.pages {
		if pg == nil {
			if spare == nil {
				spare = p.page(pi)
			}
			pg = spare[:min(pageLen, p.n-pi<<pageBits)]
		}
		blank := true
		for i := range pg {
			walk(&pg[i])
			blank = blank && pg[i] == p.blank
		}
		if !blank && p.pages[pi] == nil {
			p.pages[pi], spare = pg, nil
		}
	}
}

// direct is a direct-mapped, partially tagged table of V payloads: key k
// lives in entry k&(entries-1) under the tag (k>>shift)&(1<<bits-1). A
// tagless table (bits 0) aliases freely. Its entries are pages, so an
// unlimited table stays sparse.
type direct[V comparable] struct {
	slots pages[slot[V]]
	mask  uint64
	shift uint
	bits  uint // tag width; 16 and more keep 16 bits
}

// slot is one direct entry: the valid bit and tag, then the payload.
type slot[V comparable] struct {
	tag   uint16
	valid bool
	val   V
}

// newDirect returns a table of entries (a power of two; what names the
// table in the panic) tagged with bits of the key from shift up.
func newDirect[V comparable](what string, entries int, shift, bits uint) *direct[V] {
	if entries&(entries-1) != 0 {
		panic("prefetch: " + what + " entries must be a power of two")
	}
	return &direct[V]{slots: newPages(entries, slot[V]{}), mask: uint64(entries - 1), shift: shift, bits: bits}
}

// entries returns the capacity.
func (t *direct[V]) entries() int { return t.slots.n }

// tag returns key's partial tag.
func (t *direct[V]) tag(key uint64) uint16 { return uint16(key >> t.shift & (1<<t.bits - 1)) }

// lookup returns key's payload, or nil unless a valid entry holds key's tag.
func (t *direct[V]) lookup(key uint64) *V {
	if e := t.slots.peek(key & t.mask); e != nil && e.valid && e.tag == t.tag(key) {
		return &e.val
	}
	return nil
}

// write returns key's payload for the caller to fill. An entry that is
// invalid or holds another tag is claimed for key with a zero payload; one
// that holds key's tag keeps its payload.
func (t *direct[V]) write(key uint64) *V {
	e, tag := t.slots.at(key&t.mask), t.tag(key)
	if !e.valid || e.tag != tag {
		*e = slot[V]{tag: tag, valid: true}
	}
	return &e.val
}

// state walks the capacity as a Fixed value named what, then each entry's
// valid bit, tag and payload (through walk).
func (t *direct[V]) state(c *checkpoint.Codec, what string, walk func(*V)) {
	c.Fixed(what, t.entries())
	t.slots.state(func(e *slot[V]) {
		c.Bool(&e.valid)
		c.U16(&e.tag)
		walk(&e.val)
	})
}

// ring is a bounded FIFO ring: a push onto a full ring is dropped, and a
// pop is O(1) — the queues drain on every design tick, so a shift-down FIFO
// would memmove on the hottest prefetch path.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, capacity)} }

func (r *ring[T]) len() int   { return r.n }
func (r *ring[T]) cap() int   { return len(r.buf) }
func (r *ring[T]) full() bool { return r.n >= len(r.buf) }
func (r *ring[T]) reset()     { r.head, r.n = 0, 0 }

// at returns the k-th item from the head.
func (r *ring[T]) at(k int) *T {
	i := r.head + k
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

// push appends v unless the ring is full.
func (r *ring[T]) push(v T) {
	if r.full() {
		return
	}
	*r.at(r.n) = v
	r.n++
}

// front returns the oldest item.
func (r *ring[T]) front() (T, bool) {
	if r.n == 0 {
		var zero T
		return zero, false
	}
	return r.buf[r.head], true
}

// back returns the newest item.
func (r *ring[T]) back() (T, bool) {
	if r.n == 0 {
		var zero T
		return zero, false
	}
	return *r.at(r.n - 1), true
}

// pop removes and returns the oldest item.
func (r *ring[T]) pop() (T, bool) {
	v, ok := r.front()
	if ok {
		if r.head++; r.head == len(r.buf) {
			r.head = 0
		}
		r.n--
	}
	return v, ok
}

// state walks the capacity and the length (items of at least elemMin
// bytes), then the items in FIFO order through walk; name prefixes the
// geometry checks' messages. A loaded ring starts at its first slot.
func (r *ring[T]) state(c *checkpoint.Codec, name string, elemMin int, walk func(*T)) {
	c.Fixed(name+" capacity", r.cap())
	n := c.Len(name, r.n, elemMin, r.cap())
	if c.Loading() {
		r.head, r.n = 0, n
	}
	for k := range n {
		walk(r.at(k))
	}
}
