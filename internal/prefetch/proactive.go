package prefetch

import (
	"dnc/internal/btb"
	"dnc/internal/cache"
	"dnc/internal/isa"
)

// RLU is the Recently-Looked-Up filter: the addresses of the last eight
// blocks probed in the L1i by either the prefetcher or the demand stream. It
// suppresses repetitive cache lookups of the aggressive proactive engine
// (Section V.B, "Decreasing the unnecessary cache lookups").
type RLU struct {
	entries []isa.BlockID
	valid   []bool
	next    int
}

// NewRLU returns a filter with the given entry count (paper: 8; 0 disables
// filtering, every probe misses).
func NewRLU(entries int) *RLU {
	return &RLU{entries: make([]isa.BlockID, entries), valid: make([]bool, entries)}
}

// Contains reports whether the block was recently looked up.
func (r *RLU) Contains(b isa.BlockID) bool {
	for i := range r.entries {
		if r.valid[i] && r.entries[i] == b {
			return true
		}
	}
	return false
}

// Insert records a lookup (FIFO replacement).
func (r *RLU) Insert(b isa.BlockID) {
	if len(r.entries) == 0 || r.Contains(b) {
		return
	}
	r.entries[r.next] = b
	r.valid[r.next] = true
	if r.next++; r.next == len(r.entries) {
		r.next = 0
	}
}

// qItem is a block queued for SN4L or Dis triggering, with its chain depth.
type qItem struct {
	block isa.BlockID
	depth int
	// fromDis marks candidates produced by discontinuity replay; their
	// usefulness verdicts must not train the sequential predictor.
	fromDis bool
}

// boundedQueue is a fixed-capacity FIFO ring; pushes beyond capacity are
// dropped. The ring makes pop O(1) — these queues drain on every design tick,
// so a shift-down FIFO would memmove on the hottest prefetch path.
type boundedQueue struct {
	ring []qItem
	head int
	n    int
	cap  int
	// Drops counts items lost to overflow.
	Drops uint64
}

func newBoundedQueue(capacity int) *boundedQueue {
	return &boundedQueue{cap: capacity, ring: make([]qItem, capacity)}
}

func (q *boundedQueue) len() int { return q.n }

func (q *boundedQueue) push(it qItem) {
	if q.n >= q.cap {
		q.Drops++
		return
	}
	i := q.head + q.n
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	q.ring[i] = it
	q.n++
}

func (q *boundedQueue) pop() (qItem, bool) {
	if q.n == 0 {
		return qItem{}, false
	}
	it := q.ring[q.head]
	if q.head++; q.head == len(q.ring) {
		q.head = 0
	}
	q.n--
	return it, true
}

// ProactiveConfig sizes the combined SN4L+Dis(+BTB) design.
type ProactiveConfig struct {
	SeqEntries int  // SeqTable entries (paper: 16K); 0 = unlimited
	DisEntries int  // DisTable entries (paper: 4K); 0 = unlimited
	DisTagBits uint // DisTable partial tag width (paper: 4)
	BTBEntries int  // conventional BTB entries (paper: 2K)
	QueueDepth int  // SeqQueue/DisQueue/RLUQueue capacity (paper: 16)
	RLUEntries int  // RLU size (paper: 8)
	MaxDepth   int  // proactive chain termination depth (paper: 4)
	// WithBTBPrefetch enables the Confluence-like BTB prefetch buffer fed
	// by the shared pre-decoder (the "+BTB" in SN4L+Dis+BTB).
	WithBTBPrefetch bool
	// PBEntries/PBWays size the BTB prefetch buffer (paper: 32, 2-way).
	PBEntries, PBWays int
	// Mode affects DisTable entry storage accounting.
	Mode isa.Mode
}

// DefaultProactiveConfig returns the paper's SN4L+Dis+BTB configuration.
func DefaultProactiveConfig() ProactiveConfig {
	return ProactiveConfig{
		SeqEntries: 16 << 10,
		DisEntries: 4 << 10,
		DisTagBits: 4,
		BTBEntries: 2 << 10,
		QueueDepth: 16,
		RLUEntries: 8,
		MaxDepth:   4,
		PBEntries:  32,
		PBWays:     2,
	}
}

// Proactive is the combined SN4L+Dis prefetcher with proactive chaining and,
// optionally, the BTB prefetcher (Section V). It goes multiple sequential
// and discontinuity regions ahead of the fetch stream: SN4L candidates
// trigger Dis lookups and vice versa, each chained prefetch carrying a depth
// that terminates the chain at MaxDepth.
type Proactive struct {
	Base
	*ConvBTB
	cfg  ProactiveConfig
	seq  *SeqTable
	dis  *DisTable
	rlu  *RLU
	seqQ *boundedQueue
	disQ *boundedQueue
	rluQ *boundedQueue

	// sink is the core's event tracer, when it offers one (see TraceSink).
	sink TraceSink

	// pendingDecode holds blocks whose Dis replay / pre-decode awaits the
	// block's fill (raw bytes are needed to decode).
	pendingDecode map[isa.BlockID]int

	// disIssued tracks in-flight prefetches that originated from Dis
	// replay, so their eviction verdicts bypass the SeqTable (a useless
	// discontinuity prefetch says nothing about sequential usefulness).
	disIssued map[isa.BlockID]struct{}

	// Statistics.
	Recorded   uint64
	Replay     ReplayStats
	SeqIssued  uint64
	DisIssued  uint64
	PBFills    uint64
	RLUFilters uint64
}

// NewProactive builds the combined design. With WithBTBPrefetch it is the
// full SN4L+Dis+BTB; without it, SN4L+Dis.
func NewProactive(cfg ProactiveConfig) *Proactive {
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 16
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 4
	}
	if cfg.BTBEntries == 0 {
		cfg.BTBEntries = 2 << 10
	}
	if cfg.WithBTBPrefetch && cfg.PBEntries == 0 {
		// Written back into cfg, so StorageBits counts the buffer it builds.
		cfg.PBEntries, cfg.PBWays = 32, 2
	}
	p := &Proactive{
		cfg:           cfg,
		ConvBTB:       NewConvBTB(cfg.BTBEntries, 4),
		seq:           NewSeqTable(cfg.SeqEntries),
		dis:           NewDisTable(cfg.DisEntries, cfg.DisTagBits),
		rlu:           NewRLU(cfg.RLUEntries),
		seqQ:          newBoundedQueue(cfg.QueueDepth),
		disQ:          newBoundedQueue(cfg.QueueDepth),
		rluQ:          newBoundedQueue(cfg.QueueDepth),
		pendingDecode: make(map[isa.BlockID]int),
		disIssued:     make(map[isa.BlockID]struct{}),
	}
	if cfg.WithBTBPrefetch {
		p.PB = btb.NewPrefetchBuffer(cfg.PBEntries, cfg.PBWays)
	}
	return p
}

// AddProbes implements Prober.
func (p *Proactive) AddProbes(pr *Probes) {
	pr.ReplayTableHits += p.Replay.TableHits
	pr.ReplayNotBranch += p.Replay.NotBranch
}

// Bind implements Design, additionally capturing the environment's trace
// sink when it has one.
func (p *Proactive) Bind(env Env) {
	p.Base.Bind(env)
	p.sink, _ = env.(TraceSink)
}

// QueueOccupancy implements OccupancyReporter: total entries across the
// Seq, Dis, and RLU queues.
func (p *Proactive) QueueOccupancy() int {
	return p.seqQ.len() + p.disQ.len() + p.rluQ.len()
}

// Name implements Design.
func (p *Proactive) Name() string {
	if p.cfg.WithBTBPrefetch {
		return "SN4L+Dis+BTB"
	}
	return "SN4L+Dis"
}

// OnDemand implements Design: SN4L metadata updates plus proactive
// triggering at depth zero.
func (p *Proactive) OnDemand(b isa.BlockID, hit bool, last2 [2]isa.Addr) {
	env := p.E()
	p.seq.onDemand(env, b, hit, nil)
	if !hit {
		recordMiss(env, p.dis, last2, &p.Recorded)
	}
	// The demanded block was, by definition, just looked up.
	p.rlu.Insert(b)
	p.seqQ.push(qItem{block: b, depth: 0})
	p.disQ.push(qItem{block: b, depth: 0})
}

// auxDisBit marks a resident line as a Dis-originated prefetch in the high
// bit of the per-line Aux metadata (bits 0-3 hold the status nibble).
const auxDisBit = 0x80

// OnFill implements Design: latch local status and run deferred decodes.
func (p *Proactive) OnFill(b isa.BlockID, prefetch bool) {
	if line := p.seq.onFill(p.E(), b); line != nil {
		if _, ok := p.disIssued[b]; ok {
			delete(p.disIssued, b)
			if prefetch {
				line.Aux |= auxDisBit
			}
		}
	}
	if d, ok := p.pendingDecode[b]; ok {
		delete(p.pendingDecode, b)
		p.decodeBlock(b, d)
	}
}

// OnEvict implements Design: an unused sequential prefetch resets its
// SeqTable entry; unused discontinuity prefetches do not touch it.
func (p *Proactive) OnEvict(ev cache.Evicted) {
	if ev.Aux&auxDisBit == 0 {
		p.seq.onEvict(p.E(), ev)
	}
}

// OnRedirect implements Design: a no-op. Unlike BTB-directed engines, the
// proposed design holds no speculative fetch state — queued prefetch
// candidates were derived from observed accesses and stay valid across
// redirects (prefetching is not architectural state).
func (p *Proactive) OnRedirect(isa.Addr) {}

// QueueDrops reports items lost to queue overflow (harness probe).
func (p *Proactive) QueueDrops() (seq, dis, rlu uint64) {
	return p.seqQ.Drops, p.disQ.Drops, p.rluQ.Drops
}

// Quiescent implements Quiescer: with all three queues empty every step of
// Tick is a failed pop, mutating nothing and probing nothing.
func (p *Proactive) Quiescent() bool { return p.QueueOccupancy() == 0 }

// Tick implements Design: two SeqQueue steps, one DisQueue step, and up to
// two RLUQueue steps (two L1i ports) per cycle.
func (p *Proactive) Tick() {
	p.stepSeq()
	p.stepSeq()
	p.stepDis()
	p.stepRLU()
	p.stepRLU()
}

// stepSeq processes one SeqQueue entry: selective next-line candidates. At
// depth zero it is SN4L (four candidates); beyond a discontinuity it is SN1L
// (Section V.B: depth costs accuracy, so the chain uses depth one).
func (p *Proactive) stepSeq() {
	it, ok := p.seqQ.pop()
	if !ok {
		return
	}
	env := p.E()
	width := 4
	if it.depth > 0 {
		width = 1
	}
	var nib uint8
	if line := env.L1iLine(it.block); line != nil {
		nib = line.Aux
	} else {
		nib = p.seq.Nibble(it.block)
	}
	for i := 1; i <= width; i++ {
		if nib&(1<<(i-1)) == 0 {
			continue
		}
		p.rluQ.push(qItem{block: it.block + isa.BlockID(i), depth: it.depth})
	}
}

// stepDis processes one DisQueue entry: replay the recorded discontinuity of
// the block (deferred until the block's bytes are available).
func (p *Proactive) stepDis() {
	it, ok := p.disQ.pop()
	if !ok {
		return
	}
	if p.E().L1iContains(it.block) {
		p.decodeBlock(it.block, it.depth)
		return
	}
	// Bound the deferred-decode set: a block whose fill never arrives (e.g.
	// its prefetch was dropped on a full MSHR file) must not pin an entry.
	if _, exists := p.pendingDecode[it.block]; !exists && len(p.pendingDecode) < 64 {
		p.pendingDecode[it.block] = it.depth
	}
}

// decodeBlock runs the shared pre-decoder over a block: fill the BTB
// prefetch buffer (when enabled) and chase the DisTable offset's target.
func (p *Proactive) decodeBlock(b isa.BlockID, depth int) {
	env := p.E()
	if p.cfg.WithBTBPrefetch {
		if brs := env.Predecode(b); len(brs) > 0 {
			p.PB.Fill(b, brs)
			p.PBFills++
		}
	}
	if tb, ok := replayDis(env, p.dis, p.ConvBTB, b, &p.Replay); ok {
		if p.sink != nil {
			p.sink.TraceDiscontinuity(tb)
		}
		p.rluQ.push(qItem{block: tb, depth: depth, fromDis: true})
	}
}

// stepRLU processes one RLUQueue entry: filter through the RLU, probe the
// cache, issue the prefetch, and chain the block into Seq/DisQueues at
// depth+1.
func (p *Proactive) stepRLU() {
	it, ok := p.rluQ.pop()
	if !ok {
		return
	}
	if p.rlu.Contains(it.block) {
		p.RLUFilters++
		return
	}
	p.rlu.Insert(it.block)
	env := p.E()
	if !env.L1iContains(it.block) && !env.InFlight(it.block) {
		if env.IssuePrefetch(it.block) {
			if it.fromDis {
				p.DisIssued++
				if len(p.disIssued) < 4096 {
					p.disIssued[it.block] = struct{}{}
				}
			} else {
				p.SeqIssued++
			}
		}
	}
	nd := it.depth + 1
	if nd <= p.cfg.MaxDepth {
		// Chain rule from the paper's Section V.B example: sequential
		// candidates (A+1, A+2) are sent only to the DisQueue, to discover
		// discontinuities inside the sequential run; discontinuity targets
		// (B) enter both queues, so SN1L prefetches the sequential region
		// of the new discontinuity and Dis keeps following it.
		if it.fromDis {
			p.seqQ.push(qItem{block: it.block, depth: nd, fromDis: true})
		}
		p.disQ.push(qItem{block: it.block, depth: nd, fromDis: it.fromDis})
	}
}

// StorageBits implements Design: SeqTable + DisTable + prefetch buffer +
// queues and RLU (Section VI.D: 7.6 KB total for the paper configuration).
func (p *Proactive) StorageBits() int {
	bits := p.seq.Entries() // 1 bit per SeqTable entry
	bits += p.dis.Entries() * p.dis.EntryBits(p.cfg.Mode)
	if p.cfg.WithBTBPrefetch {
		// 32 block entries, each holding up to 4 branches of (6-bit offset
		// + 46-bit target + 2-bit kind) plus a block tag: ~1 KB.
		bits += p.cfg.PBEntries * (4*(6+46+2) + 40)
	}
	// SeqQueue, DisQueue, RLUQueue (block address + 3-bit depth) and RLU.
	bits += 3 * p.cfg.QueueDepth * (46 + 3)
	bits += p.cfg.RLUEntries * 46
	return bits
}
