// Package llc models the shared banked last-level cache, including the
// paper's DV-LLC extension: a dynamically virtualized store for per-block
// branch footprints (BFs) needed by the BTB prefetcher under variable-length
// ISAs. When a set holds at least one instruction block, its (then-)LRU way
// is re-purposed as a BF-holder; when the last instruction block leaves the
// set, the way reverts to a normal block-holder (Section V.D).
package llc

import (
	"fmt"
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
	// DVEnabled turns on DV-LLC branch-footprint virtualization.
	DVEnabled bool
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
		DVEnabled:         false,
		BFsPerSet:         21,
	}
}

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

// LLC is the shared last-level cache. Not safe for concurrent use.
//
// The whole cache is a handful of flat, pointer-free arrays in which the
// zero value means empty, so an LLC is cheap to allocate, free for the
// garbage collector to hold, and emptied or copied with a few bulk moves (see
// Acquire and Clone). A line is one packed word — block, instruction bit,
// valid bit; 0 is an empty way — beside its recency stamp, so the per-access
// way scan and the victim scan read contiguous words. Footprint slots exist
// only when DV is enabled.
type LLC struct {
	cfg     Config
	banks   int
	setsPer int // sets per bank
	ways    int
	bfCap   int // footprints one BF-holder stores; 0 with DV off

	lines  []uint64  // packed line per (set, way); 0 = invalid
	lru    []uint64  // recency stamp per (set, way); 0 while invalid
	hints  []uint8   // last way find hit per set — a guess, verified on use
	holder []uint8   // per set: 1 + the way pinned as BF-holder, 0 = none
	bfLen  []uint8   // per set: footprints stored
	bfs    []bfEntry // bfCap slots per set, the first bfLen in use (nil with DV off)

	bankOcc  []bankWindow
	clock    uint64
	stats    Stats
	queueSum uint64

	// queueHist, when set, observes every access's bank queueing delay
	// (zeros included, so the histogram shows the delayed fraction).
	queueHist *obs.Histogram
}

// SetObs attaches a bank-queue-delay histogram (nil detaches).
func (c *LLC) SetObs(queue *obs.Histogram) { c.queueHist = queue }

// Normalized fills the zero-valued fields with their defaults; it is the
// form New stores and the pool is keyed by.
func (cfg Config) Normalized() Config {
	if cfg.SizeBytes == 0 {
		cfg = DefaultConfig()
	}
	if cfg.AccessCycles == 0 {
		cfg.AccessCycles = 18
	}
	if cfg.BFsPerSet == 0 {
		cfg.BFsPerSet = 21
	}
	return cfg
}

// New returns an empty LLC built from scratch.
func New(cfg Config) *LLC {
	cfg = cfg.Normalized()
	if cfg.Ways < 1 || cfg.Ways > 255 {
		panic(fmt.Sprintf("llc: %d ways outside 1..255", cfg.Ways))
	}
	totalSets := cfg.SizeBytes / (isa.BlockBytes * cfg.Ways)
	if cfg.Banks <= 0 || totalSets%cfg.Banks != 0 {
		panic(fmt.Sprintf("llc: %d sets not divisible into %d banks", totalSets, cfg.Banks))
	}
	setsPer := totalSets / cfg.Banks
	if setsPer&(setsPer-1) != 0 {
		panic(fmt.Sprintf("llc: sets per bank %d not a power of two", setsPer))
	}
	c := &LLC{
		cfg:     cfg,
		banks:   cfg.Banks,
		setsPer: setsPer,
		ways:    cfg.Ways,
		lines:   make([]uint64, totalSets*cfg.Ways),
		lru:     make([]uint64, totalSets*cfg.Ways),
		hints:   make([]uint8, totalSets),
		holder:  make([]uint8, totalSets),
		bfLen:   make([]uint8, totalSets),
		bankOcc: make([]bankWindow, cfg.Banks),
	}
	if cfg.DVEnabled {
		// The holder way cannot hold a footprint for itself.
		c.bfCap = max(0, min(cfg.BFsPerSet, cfg.Ways-1))
		c.bfs = make([]bfEntry, totalSets*c.bfCap)
	}
	return c
}

// pools holds released LLCs for reuse, one sync.Pool per configuration, so a
// process running many short simulations allocates (and page-faults) the
// cache's arrays once per concurrent run instead of once per run. Keying by
// the full normalized Config means an LLC is only ever handed to a run of its
// own geometry and DV mode.
var pools sync.Map // Config -> *sync.Pool

// recycled returns a released LLC of the given normalized configuration, in
// whatever state its last user left it, or nil when there is none.
func recycled(cfg Config) *LLC {
	if p, ok := pools.Load(cfg); ok {
		c, _ := p.(*sync.Pool).Get().(*LLC)
		return c
	}
	return nil
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

// Clone returns an LLC with c's configuration, cache contents, clock,
// counters and bank windows (and no histogram attached), recycling a
// released one when there is one. It is how a run starts from an
// already-warmed LLC instead of warming its own; c is only read.
func (c *LLC) Clone() *LLC {
	d := recycled(c.cfg)
	if d == nil {
		d = New(c.cfg)
	}
	d.copyFrom(c)
	return d
}

// reset returns a used LLC to the state New leaves it in. Footprint slots
// past a set's bfLen are never read, so bfs stays as it is.
func (c *LLC) reset() {
	clear(c.lines)
	clear(c.lru)
	clear(c.hints)
	clear(c.holder)
	clear(c.bfLen)
	clear(c.bankOcc)
	c.clock, c.stats, c.queueSum, c.queueHist = 0, Stats{}, 0, nil
}

// copyFrom overwrites every piece of c's state with src's (same
// configuration), whatever c held before.
func (c *LLC) copyFrom(src *LLC) {
	copy(c.lines, src.lines)
	copy(c.lru, src.lru)
	copy(c.hints, src.hints)
	copy(c.holder, src.holder)
	copy(c.bfLen, src.bfLen)
	copy(c.bfs, src.bfs)
	copy(c.bankOcc, src.bankOcc)
	c.clock, c.stats, c.queueSum, c.queueHist = src.clock, src.stats, src.queueSum, nil
}

// Release hands the LLC back for reuse by a later Acquire or Clone. The
// caller must not touch it afterwards. Whatever state it is in — a run may
// have died mid-access — is overwritten on the way out of the pool.
func (c *LLC) Release() {
	p, ok := pools.Load(c.cfg)
	if !ok {
		p, _ = pools.LoadOrStore(c.cfg, new(sync.Pool))
	}
	p.(*sync.Pool).Put(c)
}

// BankDelay accounts one access against the block's bank at the given cycle
// and returns the queueing delay caused by bank over-subscription within the
// current 64-cycle window.
func (c *LLC) BankDelay(b isa.BlockID, cycle uint64) uint64 {
	if c.cfg.BankServiceCycles == 0 {
		return 0
	}
	bw := &c.bankOcc[c.BankOf(b)]
	if w := cycle >> 6; w != bw.window {
		bw.window = w
		bw.busy = 0
	}
	bw.busy += c.cfg.BankServiceCycles
	var d uint64
	if bw.busy > 64 {
		d = bw.busy - 64
		c.queueSum += d
	}
	c.queueHist.Observe(d)
	return d
}

// QueuedCycles returns cumulative bank queueing delay.
func (c *LLC) QueuedCycles() uint64 { return c.queueSum }

// Config returns the configuration.
func (c *LLC) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *LLC) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without touching cache contents (used at
// the warm-up/measurement boundary).
func (c *LLC) ResetStats() { c.stats = Stats{} }

// BankOf returns the bank (home tile) of a block.
func (c *LLC) BankOf(b isa.BlockID) int { return int(uint64(b) % uint64(c.banks)) }

func (c *LLC) setOf(b isa.BlockID) int {
	bank := c.BankOf(b)
	idx := int(uint64(b)/uint64(c.banks)) & (c.setsPer - 1)
	return bank*c.setsPer + idx
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

// find returns the way of set si holding block b, or -1. The per-set MRU
// hint short-circuits the way scan for re-probes of a recently found block
// (loops hammer the same instruction blocks); the hint is only ever a guess,
// verified against the line word, so a stale one costs a scan but can never
// misidentify a line.
func (c *LLC) find(si int, b isa.BlockID) int {
	base := si * c.ways
	key := packLine(b, false)
	if h := int(c.hints[si]); h < c.ways && c.lines[base+h]&^instBit == key {
		return h
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
	if c.cfg.DVEnabled && isInst && c.holder[si] == 0 {
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
