// Package llc models the shared banked last-level cache, including the
// paper's DV-LLC extension: a dynamically virtualized store for per-block
// branch footprints (BFs) needed by the BTB prefetcher under variable-length
// ISAs. When a set holds at least one instruction block, its (then-)LRU way
// is re-purposed as a BF-holder; when the last instruction block leaves the
// set, the way reverts to a normal block-holder (Section V.D).
package llc

import (
	"fmt"
	"math/bits"
	"sync"

	"dnc/internal/isa"
	"dnc/internal/obs"
)

// Config describes the LLC.
type Config struct {
	SizeBytes int
	Ways      int
	Banks     int
	// AccessCycles is the bank access latency (18 in the paper).
	AccessCycles uint64
	// BankServiceCycles is each access's occupancy of its bank; a bank
	// over-subscribed within a window queues later requests. Useless
	// prefetch traffic raising the observed LLC latency (Figure 5) flows
	// through this and the NoC contention model.
	BankServiceCycles uint64
	// DV selects DV-LLC branch-footprint virtualization.
	DV DV
	// BFsPerSet caps how many footprints one BF-holder way stores. A 64-byte
	// way holds 21 three-byte BFs direct-mapped by way (the paper), or 10
	// with tags when associativity exceeds 21. Figure 9 sweeps small values.
	BFsPerSet int
}

// DefaultConfig matches the paper's 32 MB, 16-way, 16-bank LLC.
func DefaultConfig() Config {
	return Config{
		SizeBytes:         32 << 20,
		Ways:              16,
		Banks:             16,
		AccessCycles:      18,
		BankServiceCycles: 8,
		BFsPerSet:         21,
	}
}

// DV is a Config's DV-LLC setting. DVDefault, the zero value, is on exactly
// for variable-length code, whose BTB prefetcher needs the footprints; sim
// resolves it from the workload, and an LLC built with it unresolved has DV
// off. DVOn and DVOff force it whatever the ISA.
type DV uint8

const (
	DVDefault DV = iota
	DVOn
	DVOff
)

// Bits of a packed line word. The block sits above them; blocks are byte
// addresses shifted right by the block size, so their top bits are free.
const (
	validBit  = 1 << 0
	instBit   = 1 << 1
	tagShift  = 2
	maxBlocks = 1 << (64 - tagShift)
)

// bfEntry is one stored footprint. It names its block by way rather than by
// ID: a footprint only ever describes a block resident in its own set, and
// eviction drops the footprint with the block.
type bfEntry struct {
	way uint8
	bf  isa.BF
}

// Stats are the LLC's accounting counters.
type Stats struct {
	InstAccesses, InstHits uint64
	DataAccesses, DataHits uint64
	Evictions              uint64
	BFStores, BFStoreFails uint64
	BFLoads, BFLoadHits    uint64
	BFTransitions          uint64
}

// bankWindow tracks a bank's service occupancy over a 64-cycle window.
type bankWindow struct {
	window uint64
	busy   uint64
}

// untouched marks, in a set's hint byte, a set nothing has touched since the
// LLC was emptied: whatever Warm preloaded into it is not written yet (see
// fill). No way index reaches it, since New caps ways at 255.
const untouched = 0xFF

// LLC is the shared last-level cache. Not safe for concurrent use.
//
// The whole cache is a handful of flat, pointer-free arrays in which the
// zero value means empty, so an LLC is cheap to allocate and free for the
// garbage collector to hold. A line is one packed word — block, instruction
// bit, valid bit; 0 is an empty way — beside its recency stamp, so the
// per-access way scan and the victim scan read contiguous words. Footprint
// slots exist only when DV is enabled.
//
// A set is written on its first touch (its hint byte reads untouched until
// then): Warm's preload is computed there, set by set, rather than copied
// in whole, and the sets a run touched are all that Acquire has to empty.
type LLC struct {
	cfg     Config
	banks   int
	setsPer int // sets per bank
	ways    int
	bfCap   int // footprints one BF-holder stores; 0 with DV off
	// Both counts are powers of two, so a block's bank is its low bits
	// (bankMask) and its set within the bank the bits above them
	// (bankShift); setShift is log2 setsPer.
	bankMask            uint64
	bankShift, setShift uint

	lines  []uint64  // packed line per (set, way); 0 = invalid
	lru    []uint64  // recency stamp per (set, way); 0 while invalid
	hints  []uint8   // last way find hit per set — a guess, verified on use — or untouched
	holder []uint8   // per set: 1 + the way pinned as BF-holder, 0 = none
	bfLen  []uint8   // per set: footprints stored
	bfs    []bfEntry // bfCap slots per set, the first bfLen in use (nil with DV off)

	bankOcc  []bankWindow
	clock    uint64
	stats    Stats
	occupied int // valid lines, untouched sets' preloaded ones included

	// warmFirst and warmN are the image Warm preloaded: blocks warmFirst up
	// to warmFirst+warmN-1 (warmN 0: none).
	warmFirst, warmN uint64
	// touched lists the sets touched since the LLC was last emptied, unless
	// allTouched says that every set may have been (a snapshot walked them
	// all).
	touched    []int32
	allTouched bool

	// queueHist, when set, observes every access's bank queueing delay
	// (zeros included, so the histogram shows the delayed fraction).
	queueHist *obs.Histogram
}

// SetObs attaches a bank-queue-delay histogram (nil detaches).
func (c *LLC) SetObs(queue *obs.Histogram) { c.queueHist = queue }

// Normalized fills each zero-valued field with its default, leaving the
// others as given; it is the form New stores and the free list is keyed by.
func (cfg Config) Normalized() Config {
	def := DefaultConfig()
	if cfg.SizeBytes == 0 {
		cfg.SizeBytes = def.SizeBytes
	}
	if cfg.Ways == 0 {
		cfg.Ways = def.Ways
	}
	if cfg.Banks == 0 {
		cfg.Banks = def.Banks
	}
	if cfg.AccessCycles == 0 {
		cfg.AccessCycles = def.AccessCycles
	}
	if cfg.BankServiceCycles == 0 {
		cfg.BankServiceCycles = def.BankServiceCycles
	}
	if cfg.BFsPerSet == 0 {
		cfg.BFsPerSet = def.BFsPerSet
	}
	return cfg
}

// New returns an empty LLC built from scratch.
func New(cfg Config) *LLC {
	cfg = cfg.Normalized()
	if cfg.Ways < 1 || cfg.Ways > 255 {
		panic(fmt.Sprintf("llc: %d ways outside 1..255", cfg.Ways))
	}
	if cfg.DV == DVOn && cfg.Ways < 2 {
		panic("llc: DV needs a way for the BF-holder and one for blocks")
	}
	totalSets := cfg.SizeBytes / (isa.BlockBytes * cfg.Ways)
	if cfg.Banks <= 0 || cfg.Banks&(cfg.Banks-1) != 0 {
		panic(fmt.Sprintf("llc: %d banks is not a power of two", cfg.Banks))
	}
	if totalSets%cfg.Banks != 0 {
		panic(fmt.Sprintf("llc: %d sets not divisible into %d banks", totalSets, cfg.Banks))
	}
	setsPer := totalSets / cfg.Banks
	if setsPer&(setsPer-1) != 0 {
		panic(fmt.Sprintf("llc: sets per bank %d not a power of two", setsPer))
	}
	c := &LLC{
		cfg:       cfg,
		banks:     cfg.Banks,
		setsPer:   setsPer,
		ways:      cfg.Ways,
		bankMask:  uint64(cfg.Banks - 1),
		bankShift: uint(bits.TrailingZeros(uint(cfg.Banks))),
		setShift:  uint(bits.TrailingZeros(uint(setsPer))),
		lines:     make([]uint64, totalSets*cfg.Ways),
		lru:       make([]uint64, totalSets*cfg.Ways),
		hints:     make([]uint8, totalSets),
		holder:    make([]uint8, totalSets),
		bfLen:     make([]uint8, totalSets),
		bankOcc:   make([]bankWindow, cfg.Banks),
	}
	markUntouched(c.hints)
	if cfg.DV == DVOn {
		// The holder way cannot hold a footprint for itself.
		c.bfCap = max(0, min(cfg.BFsPerSet, cfg.Ways-1))
		c.bfs = make([]bfEntry, totalSets*c.bfCap)
	}
	return c
}

// free holds released LLCs for reuse, a list per normalized configuration,
// so a process running many short simulations allocates (and page-faults)
// the cache's arrays once per concurrent run instead of once per run.
// Keying by the full normalized Config means an LLC is only ever handed to a
// run of its own geometry and DV mode. Unlike a sync.Pool's, the lists
// survive garbage collections and belong to no P: a run gets back what any
// earlier run released, on whichever thread. An Acquire that finds none of
// its configuration drops one released LLC of another, so the LLCs held,
// free and in use together, never outnumber the most that were in use at
// once, however many configurations a process runs.
var free struct {
	sync.Mutex
	lists map[Config][]*LLC
}

// recycled returns a released LLC of the given normalized configuration, in
// whatever state its last user left it, or nil when there is none; then it
// drops a released LLC of another configuration, if there is one, to make
// room for the one the caller builds.
func recycled(cfg Config) *LLC {
	free.Lock()
	defer free.Unlock()
	l := free.lists[cfg]
	if len(l) == 0 {
		for other, l := range free.lists {
			if len(l) > 0 {
				l[len(l)-1] = nil
				free.lists[other] = l[:len(l)-1]
				break
			}
		}
		return nil
	}
	c := l[len(l)-1]
	l[len(l)-1] = nil
	free.lists[cfg] = l[:len(l)-1]
	return c
}

// Acquire returns an empty LLC, recycling a released one of the same
// configuration when there is one. It is indistinguishable from New(cfg).
func Acquire(cfg Config) *LLC {
	cfg = cfg.Normalized()
	c := recycled(cfg)
	if c == nil {
		return New(cfg)
	}
	c.reset()
	return c
}

func markUntouched(hints []uint8) {
	for i := range hints {
		hints[i] = untouched
	}
}

// reset returns a used LLC to the state New leaves it in, emptying only the
// sets it touched. Footprint slots past a set's bfLen are never read, so bfs
// stays as it is.
func (c *LLC) reset() {
	if c.allTouched {
		clear(c.lines)
		clear(c.lru)
		clear(c.holder)
		clear(c.bfLen)
		markUntouched(c.hints)
	} else {
		for _, si := range c.touched {
			base := int(si) * c.ways
			clear(c.lines[base : base+c.ways])
			clear(c.lru[base : base+c.ways])
			c.hints[si], c.holder[si], c.bfLen[si] = untouched, 0, 0
		}
	}
	c.touched, c.allTouched = c.touched[:0], false
	clear(c.bankOcc)
	c.clock, c.stats, c.queueHist, c.occupied = 0, Stats{}, nil, 0
	c.warmFirst, c.warmN = 0, 0
}

// Warm preloads the instruction blocks first..last into this empty LLC: the
// long-warmed state a checkpointed full-system simulation starts from, and
// exactly what Inserting each of them in ascending order would leave. No set
// is written here. The clock, counters and occupancy the inserts would leave
// are computed in closed form, and each set is written on its first touch
// (fill), so the preload costs neither memory nor time in the sets a run
// never reaches.
func (c *LLC) Warm(first, last isa.BlockID) {
	if c.warmN != 0 || c.allTouched || len(c.touched) != 0 {
		panic("llc: Warm on an LLC that is not empty")
	}
	if last < first {
		return
	}
	// Blocks a set count apart share a set, so every set receives either q
	// or q+1 of the image's n blocks.
	n, sets := uint64(last-first)+1, uint64(len(c.hints))
	q, rem := n/sets, n%sets
	for _, g := range [2]struct{ blocks, sets uint64 }{{q + 1, rem}, {q, sets - rem}} {
		evictions, transitions, valid := c.preloaded(g.blocks)
		c.stats.Evictions += g.sets * evictions
		c.stats.BFTransitions += g.sets * transitions
		c.occupied += int(g.sets * valid)
	}
	c.clock, c.warmFirst, c.warmN = n, uint64(first), n
}

// preloaded returns what inserting n distinct instruction blocks into one
// empty set counts and leaves: its evictions, its BF-holder transitions and
// the valid lines that remain.
func (c *LLC) preloaded(n uint64) (evictions, transitions, valid uint64) {
	ways := uint64(c.ways)
	switch {
	case n == 0:
		return 0, 0, 0
	case c.cfg.DV != DVOn:
		return n - min(n, ways), 0, min(n, ways)
	case ways == 2:
		// The set's one block way holds its only instruction block, so each
		// block after the first evicts it, releasing the holder, which the
		// next block pins again (in the empty holder way: no eviction).
		return n - 1, max(1, n-1), 1
	default:
		// The first block pins the holder in the empty set; the other ways
		// fill, then rotate, and the holder stays pinned throughout.
		return n - min(n, ways-1), 1, min(n, ways-1)
	}
}

// touch writes set si if nothing has touched it yet.
func (c *LLC) touch(si int) {
	if c.hints[si] == untouched {
		c.fill(si)
	}
}

// fill writes set si on its first touch and records it for reset. The
// preload's share of the set is computed, not replayed: its image blocks
// (those congruent to r modulo the set count, in ascending order) take the
// block ways in turn, each evicting the least recently stamped, so the last
// of them remain, block j in block way j mod the block ways, stamped with the
// clock the whole preload stood at when it went in. With DV on, the first
// block pins way 0 as the BF-holder, and that pin stays unless the set has
// one block way: there the second block evicts the first, the set's only
// instruction block, and the holder goes with it (see preloaded).
func (c *LLC) fill(si int) {
	c.hints[si] = 0
	if !c.allTouched {
		c.touched = append(c.touched, int32(si))
	}
	sets := uint64(len(c.hints))
	r := uint64(si&(c.setsPer-1))<<c.bankShift | uint64(si>>c.setShift)
	off := (r + sets - c.warmFirst%sets) % sets // the set's first block is warmFirst+off
	if off >= c.warmN {
		return
	}
	n := (c.warmN-off-1)/sets + 1
	ways, at := uint64(c.ways), uint64(0)
	if c.cfg.DV == DVOn {
		ways, at = ways-1, 1
		if ways > 1 || n == 1 {
			c.holder[si] = 1
		}
	}
	base := uint64(si * c.ways)
	for j := n - min(n, ways); j < n; j++ {
		o, w := off+j*sets, base+at+j%ways
		c.lines[w], c.lru[w] = packLine(isa.BlockID(c.warmFirst+o), true), o+1
	}
}

// touchAll writes every set still untouched, for the walks over the whole
// cache.
func (c *LLC) touchAll() {
	c.allTouched = true
	for si := range c.hints {
		c.touch(si)
	}
}

// Occupancy returns the number of valid lines, those Warm preloaded into sets
// not yet touched included.
func (c *LLC) Occupancy() int { return c.occupied }

// Release hands the LLC back for reuse by a later Acquire. The caller must
// not touch it afterwards. Whatever state it is in — a run may have died
// mid-access — is overwritten on the way out of the free list.
func (c *LLC) Release() {
	free.Lock()
	defer free.Unlock()
	if free.lists == nil {
		free.lists = map[Config][]*LLC{}
	}
	free.lists[c.cfg] = append(free.lists[c.cfg], c)
}

// BankDelay accounts one access against the block's bank at the given cycle
// and returns the queueing delay caused by bank over-subscription within the
// current 64-cycle window.
func (c *LLC) BankDelay(b isa.BlockID, cycle uint64) uint64 {
	bw := &c.bankOcc[c.BankOf(b)]
	if w := cycle >> 6; w != bw.window {
		bw.window = w
		bw.busy = 0
	}
	bw.busy += c.cfg.BankServiceCycles
	var d uint64
	if bw.busy > 64 {
		d = bw.busy - 64
	}
	c.queueHist.Observe(d)
	return d
}

// Config returns the configuration.
func (c *LLC) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *LLC) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without touching cache contents (used at
// the warm-up/measurement boundary).
func (c *LLC) ResetStats() { c.stats = Stats{} }

// BankOf returns the bank (home tile) of a block.
func (c *LLC) BankOf(b isa.BlockID) int { return int(uint64(b) & c.bankMask) }

func (c *LLC) setOf(b isa.BlockID) int {
	return int((uint64(b)&c.bankMask)<<c.setShift | uint64(b)>>c.bankShift&uint64(c.setsPer-1))
}

// packLine builds the line word of a resident block.
func packLine(b isa.BlockID, isInst bool) uint64 {
	l := uint64(b)<<tagShift | validBit
	if isInst {
		l |= instBit
	}
	return l
}

// blockOf is the block a (valid) line word holds.
func blockOf(l uint64) isa.BlockID { return isa.BlockID(l >> tagShift) }

// find returns the way of set si holding block b, or -1, writing the set
// first if nothing has touched it yet. The per-set MRU hint short-circuits
// the way scan for re-probes of a recently found block (loops hammer the
// same instruction blocks); the hint is only ever a guess, verified against
// the line word, so a stale one costs a scan but can never misidentify a
// line.
func (c *LLC) find(si int, b isa.BlockID) int {
	base := si * c.ways
	key := packLine(b, false)
	h := c.hints[si]
	if int(h) < c.ways && c.lines[base+int(h)]&^instBit == key {
		return int(h)
	}
	if h == untouched {
		c.fill(si)
	}
	for i, l := range c.lines[base : base+c.ways] {
		if l&^instBit == key {
			c.hints[si] = uint8(i)
			return i
		}
	}
	return -1
}

// Contains reports residency without updating recency.
func (c *LLC) Contains(b isa.BlockID) bool { return c.find(c.setOf(b), b) >= 0 }

// Access performs a demand lookup, updating recency and hit statistics.
func (c *LLC) Access(b isa.BlockID, isInst bool) bool {
	if isInst {
		c.stats.InstAccesses++
	} else {
		c.stats.DataAccesses++
	}
	si := c.setOf(b)
	w := c.find(si, b)
	if w < 0 {
		return false
	}
	c.clock++
	c.lru[si*c.ways+w] = c.clock
	if isInst {
		c.stats.InstHits++
	} else {
		c.stats.DataHits++
	}
	return true
}

// Insert fills block b. In DV mode, the first instruction block entering a
// set converts the set's LRU way into a BF-holder.
func (c *LLC) Insert(b isa.BlockID, isInst bool) {
	si := c.setOf(b)
	base := si * c.ways
	if w := c.find(si, b); w >= 0 {
		c.clock++
		c.lru[base+w] = c.clock
		if isInst {
			c.lines[base+w] |= instBit
		}
		return
	}
	if c.cfg.DV == DVOn && isInst && c.holder[si] == 0 {
		c.transitionToBFHolder(si)
	}
	w := c.victimWay(si)
	if old := c.lines[base+w]; old != 0 {
		c.stats.Evictions++
		c.dropBF(si, w)
		c.lines[base+w] = 0
		if old&instBit != 0 {
			c.maybeReleaseBFHolder(si)
		}
	} else {
		c.occupied++
	}
	c.clock++
	c.lines[base+w] = packLine(b, isInst)
	c.lru[base+w] = c.clock
}

// victimWay picks the LRU way, skipping the pinned BF-holder.
func (c *LLC) victimWay(si int) int {
	base := si * c.ways
	lines, lru := c.lines[base:base+c.ways], c.lru[base:base+c.ways]
	held := int(c.holder[si]) - 1
	victim := -1
	for i, l := range lines {
		if i == held {
			continue
		}
		if l == 0 {
			return i
		}
		if victim < 0 || lru[i] < lru[victim] {
			victim = i
		}
	}
	return victim
}

// transitionToBFHolder evicts the current LRU way (if utilized) and pins it
// as the set's BF-holder.
func (c *LLC) transitionToBFHolder(si int) {
	w := c.victimWay(si)
	if i := si*c.ways + w; c.lines[i] != 0 {
		c.stats.Evictions++
		c.occupied--
		c.lines[i], c.lru[i] = 0, 0
	}
	c.holder[si] = uint8(w + 1)
	c.stats.BFTransitions++
}

// maybeReleaseBFHolder reverts the BF-holder way to a block-holder when the
// set no longer contains instruction blocks.
func (c *LLC) maybeReleaseBFHolder(si int) {
	if c.holder[si] == 0 || c.hasInst(si) {
		return
	}
	c.holder[si] = 0
	c.bfLen[si] = 0
}

// hasInst reports whether set si holds a resident instruction block.
func (c *LLC) hasInst(si int) bool {
	for _, l := range c.lines[si*c.ways : (si+1)*c.ways] {
		if l&instBit != 0 {
			return true
		}
	}
	return false
}

// setBFs returns the footprints stored in set si.
func (c *LLC) setBFs(si int) []bfEntry {
	if c.holder[si] == 0 {
		return nil
	}
	return c.bfs[si*c.bfCap:][:c.bfLen[si]]
}

// dropBF forgets the footprint of the block in way w of set si, if any.
func (c *LLC) dropBF(si, w int) {
	bfs := c.setBFs(si)
	for i := range bfs {
		if int(bfs[i].way) == w {
			bfs[i] = bfs[len(bfs)-1]
			c.bfLen[si]--
			return
		}
	}
}

// StoreBF records the branch footprint of a resident instruction block in
// the set's BF-holder. It reports whether the footprint was stored; failures
// (no BF-holder, block not resident, holder full) are the "uncovered"
// footprints of Figure 9.
func (c *LLC) StoreBF(b isa.BlockID, bf isa.BF) bool {
	c.stats.BFStores++
	si := c.setOf(b)
	c.touch(si)
	w := -1
	if c.holder[si] != 0 {
		w = c.find(si, b)
	}
	if w < 0 {
		c.stats.BFStoreFails++
		return false
	}
	bfs := c.setBFs(si)
	for i := range bfs {
		if int(bfs[i].way) == w {
			bfs[i].bf = bf
			return true
		}
	}
	if len(bfs) >= c.bfCap {
		c.stats.BFStoreFails++
		return false
	}
	c.bfs[si*c.bfCap+len(bfs)] = bfEntry{way: uint8(w), bf: bf}
	c.bfLen[si]++
	return true
}

// LoadBF fetches the stored footprint of a block, as done alongside the
// block's data response on an L1i fill from the LLC.
func (c *LLC) LoadBF(b isa.BlockID) (isa.BF, bool) {
	c.stats.BFLoads++
	// A set nothing has touched reads as pinning no holder, and what Warm
	// preloaded into it stores no footprint either: the load misses alike.
	si := c.setOf(b)
	if bfs := c.setBFs(si); len(bfs) > 0 {
		if w := c.find(si, b); w >= 0 {
			for i := range bfs {
				if int(bfs[i].way) == w {
					c.stats.BFLoadHits++
					return bfs[i].bf, true
				}
			}
		}
	}
	return isa.BF{}, false
}

// InstBlocks returns the number of resident instruction blocks (test hook).
func (c *LLC) InstBlocks() int {
	c.touchAll()
	n := 0
	for _, l := range c.lines {
		if l&instBit != 0 {
			n++
		}
	}
	return n
}

// BFHolderSets returns how many sets currently pin a BF-holder way.
func (c *LLC) BFHolderSets() int {
	c.touchAll()
	n := 0
	for _, h := range c.holder {
		if h != 0 {
			n++
		}
	}
	return n
}

// AccessCycles returns the configured bank latency.
func (c *LLC) AccessCycles() uint64 { return c.cfg.AccessCycles }
