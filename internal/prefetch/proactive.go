package prefetch

import (
	"dnc/internal/btb"
	"dnc/internal/cache"
	"dnc/internal/isa"
)

// qItem is a block queued for SN4L or Dis triggering, with its chain depth.
type qItem struct {
	block isa.BlockID
	depth int
	// fromDis marks candidates produced by discontinuity replay; their
	// usefulness verdicts must not train the sequential predictor.
	fromDis bool
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
}

// The BTB prefetch buffer of SN4L+Dis+BTB: 32 entries, 2-way.
const pbEntries, pbWays = 32, 2

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
	seq  *seqTable
	dis  *disTable
	rlu  ring[isa.BlockID] // the RLU, see lookedUp
	seqQ ring[qItem]
	disQ ring[qItem]
	rluQ ring[qItem]

	// sink is the core's event tracer, when it offers one (see TraceSink).
	sink TraceSink

	// pendingDecode holds blocks whose Dis replay / pre-decode awaits the
	// block's fill (raw bytes are needed to decode).
	pendingDecode map[isa.BlockID]int

	// disIssued tracks in-flight prefetches that originated from Dis
	// replay, so their eviction verdicts bypass the SeqTable (a useless
	// discontinuity prefetch says nothing about sequential usefulness).
	disIssued map[isa.BlockID]struct{}

	// replay counts the Dis replay outcomes its Probes report.
	replay replayStats
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
	p := &Proactive{
		cfg:           cfg,
		ConvBTB:       NewConvBTB(cfg.BTBEntries, 4),
		seq:           newSeqTable(cfg.SeqEntries),
		dis:           newDisTable(cfg.DisEntries, cfg.DisTagBits),
		rlu:           newRing[isa.BlockID](cfg.RLUEntries),
		seqQ:          newRing[qItem](cfg.QueueDepth),
		disQ:          newRing[qItem](cfg.QueueDepth),
		rluQ:          newRing[qItem](cfg.QueueDepth),
		pendingDecode: make(map[isa.BlockID]int),
		disIssued:     make(map[isa.BlockID]struct{}),
	}
	if cfg.WithBTBPrefetch {
		p.PB = btb.NewPrefetchBuffer(pbEntries, pbWays)
	}
	return p
}

// AddProbes implements Prober.
func (p *Proactive) AddProbes(pr *Probes) {
	pr.ReplayTableHits += p.replay.TableHits
	pr.ReplayNotBranch += p.replay.NotBranch
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
	p.seq.onDemand(env, b, hit)
	if !hit {
		recordMiss(env, p.dis, last2)
	}
	// The demanded block was, by definition, just looked up.
	p.lookedUp(b)
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
		p.PB.Fill(b, env.Predecode(b))
	}
	if tb, ok := replayDis(env, p.dis, p.ConvBTB, b, &p.replay); ok {
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
	if p.lookedUp(it.block) {
		return
	}
	if prefetchAbsent(p.E(), it.block) && it.fromDis && len(p.disIssued) < 4096 {
		p.disIssued[it.block] = struct{}{}
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

// lookedUp consults the Recently-Looked-Up filter, the last RLUEntries
// blocks probed in the L1i by either the prefetcher or the demand stream,
// which suppresses repetitive cache lookups of the aggressive proactive
// engine (Section V.B, "Decreasing the unnecessary cache lookups"). It
// reports whether b is in the RLU and, when it is not, records it,
// displacing the oldest entry of a full filter (FIFO). A zero-entry RLU
// records nothing, so every probe passes.
func (p *Proactive) lookedUp(b isa.BlockID) bool {
	for k := range p.rlu.len() {
		if *p.rlu.at(k) == b {
			return true
		}
	}
	if p.rlu.full() {
		p.rlu.pop()
	}
	p.rlu.push(b)
	return false
}

// StorageBits implements Design: SeqTable + DisTable + prefetch buffer +
// queues and RLU (Section VI.D: 7.6 KB total for the paper configuration).
// Like Table II, it counts the DisTable's fixed-length offsets.
func (p *Proactive) StorageBits() int {
	bits := p.seq.Entries() // 1 bit per SeqTable entry
	bits += disTableBits(p.dis)
	if p.cfg.WithBTBPrefetch {
		// 32 block entries, each holding up to 4 branches of (6-bit offset
		// + 46-bit target + 2-bit kind) plus a block tag: ~1 KB.
		bits += pbEntries * (4*(6+46+2) + 40)
	}
	// SeqQueue, DisQueue, RLUQueue (block address + 3-bit depth) and RLU.
	bits += 3 * p.cfg.QueueDepth * (46 + 3)
	bits += p.cfg.RLUEntries * 46
	return bits
}
