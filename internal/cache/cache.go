// Package cache implements the set-associative caches of the memory
// hierarchy: a generic LRU cache with per-line metadata hooks (prefetch
// flags, SN4L's 4-bit local prefetch status) and a miss-status holding
// register (MSHR) file that merges demand requests into in-flight prefetches
// — the mechanism behind partially covered miss latency (the paper's CMAL
// and FSCR metrics).
package cache

import (
	"fmt"

	"dnc/internal/checkpoint"
	"dnc/internal/isa"
)

// Line flag bits.
const (
	// FlagPrefetched marks a line brought in by a prefetcher and not yet
	// demanded (the paper's 1-bit isPrefetch flag).
	FlagPrefetched uint8 = 1 << iota
	// FlagInstruction marks instruction lines (used by DV-LLC's
	// isInstruction OR).
	FlagInstruction
)

// Line is the client-visible state of one resident cache line.
type Line struct {
	tag   isa.BlockID
	valid bool
	// Flags holds Flag* bits.
	Flags uint8
	// Aux is free per-line metadata; SN4L stores its 4-bit local prefetch
	// status here.
	Aux uint8
}

// Block returns the block resident in the line.
func (l *Line) Block() isa.BlockID { return l.tag }

// Evicted describes a victim line returned by Insert.
type Evicted struct {
	Block isa.BlockID
	Flags uint8
	Aux   uint8
}

// Cache is a set-associative LRU cache operating on 64-byte block IDs.
//
// Residency tags and recency clocks live in packed side arrays (one word
// per way each) separate from the Line metadata: a find scans contiguous
// words instead of striding across 16-byte Line records, and Insert's
// victim selection is one more contiguous scan (invalid ways carry recency
// 0, so the leftmost minimum is the first-invalid-else-LRU way). The tag
// array mirrors each line's tag and valid bit, maintained by every line
// write and rebuilt when State loads; the recency array is the lines' only
// LRU state.
type Cache struct {
	sets  int
	ways  int
	lines []Line
	tags  []uint64 // tagKey(block) per line; 0 = invalid
	lrus  []uint64 // recency clock per line; 0 = invalid (clock starts at 1)
	hints []uint8  // last way find/Access hit per set — a guess, verified on use
	clock uint64
}

// tagKey packs a block and an always-set valid bit into one comparable word,
// so find is a single equality test per way and an invalid slot (0) can
// never match a probe.
func tagKey(b isa.BlockID) uint64 { return uint64(b)<<1 | 1 }

// New returns a cache of the given total size and associativity. Size must
// be a multiple of ways*64 and the resulting set count a power of two.
func New(sizeBytes, ways int) *Cache {
	if sizeBytes <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache: bad geometry size=%d ways=%d", sizeBytes, ways))
	}
	blocks := sizeBytes / isa.BlockBytes
	sets := blocks / ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two (size=%d ways=%d)",
			sets, sizeBytes, ways))
	}
	return &Cache{sets: sets, ways: ways, lines: make([]Line, sets*ways),
		tags: make([]uint64, sets*ways), lrus: make([]uint64, sets*ways),
		hints: make([]uint8, sets)}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SizeBytes returns the capacity in bytes.
func (c *Cache) SizeBytes() int { return c.sets * c.ways * isa.BlockBytes }

func (c *Cache) setOf(b isa.BlockID) int { return int(uint64(b) & uint64(c.sets-1)) }

// findIdx returns the line index holding b, or -1. The per-set MRU hint
// short-circuits the way scan for re-probes of a recently found block; a
// hint is only a guess, verified against the tag mirror, so a stale one
// costs a scan but can never misidentify a line.
func (c *Cache) findIdx(b isa.BlockID) int {
	si := c.setOf(b)
	s := si * c.ways
	key := tagKey(b)
	if h := int(c.hints[si]); h < c.ways && c.tags[s+h] == key {
		return s + h
	}
	for i, t := range c.tags[s : s+c.ways] {
		if t == key {
			c.hints[si] = uint8(i)
			return s + i
		}
	}
	return -1
}

// find returns the line holding b, or nil.
func (c *Cache) find(b isa.BlockID) *Line {
	if i := c.findIdx(b); i >= 0 {
		return &c.lines[i]
	}
	return nil
}

// Contains reports residency without touching LRU state (a "peek", as used
// by prefetchers probing the cache).
func (c *Cache) Contains(b isa.BlockID) bool { return c.find(b) != nil }

// Line returns the resident line for b for metadata access, or nil. It does
// not touch LRU state.
func (c *Cache) Line(b isa.BlockID) *Line { return c.find(b) }

// Access performs a demand lookup: on hit it promotes the line to MRU and
// returns it; on miss it returns nil.
func (c *Cache) Access(b isa.BlockID) *Line {
	i := c.findIdx(b)
	if i < 0 {
		return nil
	}
	c.clock++
	c.lrus[i] = c.clock
	return &c.lines[i]
}

// AccessOrInsert is Access followed, on a miss, by Insert, in one scan of
// the set: it reports a hit, promoting the line to MRU, or fills b over the
// victim Insert would pick and drops the victim. Clock, recency and hint end
// exactly as the two calls leave them.
func (c *Cache) AccessOrInsert(b isa.BlockID) (hit bool) {
	si := c.setOf(b)
	s := si * c.ways
	key := tagKey(b)
	i := -1
	if h := int(c.hints[si]); h < c.ways && c.tags[s+h] == key {
		i = s + h
	} else {
		vi := s
		for w, t := range c.tags[s : s+c.ways] {
			if t == key {
				c.hints[si] = uint8(w)
				i = s + w
				break
			}
			if c.lrus[s+w] < c.lrus[vi] {
				vi = s + w
			}
		}
		if i < 0 {
			c.clock++
			c.lines[vi] = Line{tag: b, valid: true}
			c.tags[vi] = key
			c.lrus[vi] = c.clock
			return false
		}
	}
	c.clock++
	c.lrus[i] = c.clock
	return true
}

// Insert fills block b, evicting the LRU way if the set is full. It returns
// the filled line and, when a valid line was displaced, its victim state
// (evicted reports whether ev is meaningful). The victim is returned by
// value so the per-fill fast path never allocates.
func (c *Cache) Insert(b isa.BlockID) (l *Line, ev Evicted, evicted bool) {
	s := c.setOf(b) * c.ways
	key := tagKey(b)
	vi := s
	for i, t := range c.tags[s : s+c.ways] {
		if t == key {
			// Refill of a resident block: treat as a touch.
			c.clock++
			c.lrus[s+i] = c.clock
			return &c.lines[s+i], Evicted{}, false
		}
		// Victim pre-selection rides the same scan: the recency array is 0
		// for invalid ways, so the leftmost minimum is exactly the
		// first-invalid-else-LRU way the two-pass scan used to pick.
		if c.lrus[i+s] < c.lrus[vi] {
			vi = i + s
		}
	}
	victim := &c.lines[vi]
	if victim.valid {
		ev, evicted = Evicted{Block: victim.tag, Flags: victim.Flags, Aux: victim.Aux}, true
	}
	c.clock++
	*victim = Line{tag: b, valid: true}
	c.tags[vi] = key
	c.lrus[vi] = c.clock
	return victim, ev, evicted
}

// Invalidate removes block b if resident, returning whether it was.
func (c *Cache) Invalidate(b isa.BlockID) bool {
	s := c.setOf(b) * c.ways
	key := tagKey(b)
	for i, t := range c.tags[s : s+c.ways] {
		if t == key {
			c.lines[s+i] = Line{}
			c.tags[s+i] = 0
			c.lrus[s+i] = 0
			return true
		}
	}
	return false
}

// Reset invalidates every line.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = Line{}
	}
	clear(c.tags)
	clear(c.lrus)
	c.clock = 0
}

// State walks the cache's full state (geometry, LRU clock, every line) for
// checkpointing. The snapshot's geometry must match the receiver's:
// snapshots restore into an identically configured machine, they do not
// reconfigure it.
func (c *Cache) State(cp *checkpoint.Codec) {
	cp.Begin("cache")
	cp.Fixed("cache sets", c.sets)
	cp.Fixed("cache ways", c.ways)
	cp.U64(&c.clock)
	for i := range c.lines {
		l, lru := &c.lines[i], c.lrus[i]
		checkpoint.Word(cp, &l.tag)
		cp.Bool(&l.valid)
		cp.U64(&lru)
		cp.U8(&l.Flags)
		cp.U8(&l.Aux)
		if cp.Loading() {
			c.tags[i], c.lrus[i] = 0, 0
			if l.valid {
				c.tags[i], c.lrus[i] = tagKey(l.tag), lru
			}
		}
	}
	cp.End()
}
