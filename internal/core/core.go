// Package core implements the simulated out-of-order core: a three-stage
// fetch frontend with FTQ gating, conventional or design-supplied BTB
// organizations, TAGE direction prediction and a return address stack, an
// L1i with MSHRs and optional prefetch buffer, a simplified 3-wide backend
// with a 128-entry ROB and an L1d, and full stall-cycle attribution
// (instruction-miss, empty-FTQ, BTB-miss, misprediction, backend).
//
// The simulator is timing-directed and trace-driven: the committed path
// comes from the workload walker; branch mispredictions and BTB misses
// charge redirect penalties and inject wrong-path fetches that pollute the
// caches and consume bandwidth, the first-order effects the paper models.
package core

import (
	"dnc/internal/blockmap"
	"dnc/internal/bpred"
	"dnc/internal/cache"
	wl "dnc/internal/cfg"
	"dnc/internal/isa"
	"dnc/internal/obs"
	"dnc/internal/prefetch"
)

// Config parameterizes one core (Table III defaults).
type Config struct {
	Tile        int
	FetchWidth  int
	RetireWidth int
	ROBEntries  int
	// PipelineDepth is the fetch-to-execute fill depth used by the
	// completion-time model (3 frontend + 12 backend stages are abstracted
	// into this plus the per-instruction execution latency).
	PipelineDepth uint64

	L1ISizeBytes, L1IWays int
	L1DSizeBytes, L1DWays int
	L1IMSHRs              int
	L1DLatency            uint64

	// MispredictPenalty is the redirect cost of branches resolved in the
	// backend (paper: at least six cycles).
	MispredictPenalty uint64
	// BTBMissPenaltyTaken is charged when a taken conditional branch was
	// unknown to the BTB (resolved at execute).
	BTBMissPenaltyTaken uint64
	// BTBMissPenaltyDecode is charged when an unconditional branch or
	// return is discovered at decode (shallower redirect).
	BTBMissPenaltyDecode uint64

	RASDepth int
	// WrongPathBlocks is how many sequential wrong-path blocks fetch
	// touches during a redirect shadow. Normalized treats zero as unset (the
	// default, 2) like every other count here; a negative value turns
	// wrong-path fetch off.
	WrongPathBlocks int

	// PerfectL1i makes every instruction fetch hit (Figure 17 reference).
	PerfectL1i bool
	// PerfectBTB suppresses all BTB-miss penalties (the BTB-infinity
	// reference point).
	PerfectBTB bool

	// PrefetchBufferEntries, when nonzero, adds a fully associative L1i
	// prefetch buffer; buffered prefetch fills land there and promote to
	// the L1i on demand (Shotgun's 64-entry buffer).
	PrefetchBufferEntries int

	TAGE bpred.TAGEConfig
}

// DefaultConfig matches the paper's per-core parameters.
func DefaultConfig() Config {
	return Config{
		FetchWidth:           3,
		RetireWidth:          3,
		ROBEntries:           128,
		PipelineDepth:        15,
		L1ISizeBytes:         32 << 10,
		L1IWays:              8,
		L1DSizeBytes:         32 << 10,
		L1DWays:              8,
		L1IMSHRs:             32,
		L1DLatency:           4,
		MispredictPenalty:    8,
		BTBMissPenaltyTaken:  8,
		BTBMissPenaltyDecode: 6,
		RASDepth:             32,
		WrongPathBlocks:      2,
		TAGE:                 bpred.DefaultTAGEConfig(),
	}
}

// Normalized fills each zero field of c from DefaultConfig, so a partial
// configuration keeps what it sets: Config{PerfectL1i: true} is the default
// core with a perfect L1i. Tile, PerfectL1i, PerfectBTB and
// PrefetchBufferEntries are kept as given, since zero is a valid setting of
// each; a TAGE with no BaseEntries takes the default predictor whole, as
// bpred.NewTAGE does.
func (c Config) Normalized() Config {
	d := DefaultConfig()
	orDefault(&c.FetchWidth, d.FetchWidth)
	orDefault(&c.RetireWidth, d.RetireWidth)
	orDefault(&c.ROBEntries, d.ROBEntries)
	orDefault(&c.PipelineDepth, d.PipelineDepth)
	orDefault(&c.L1ISizeBytes, d.L1ISizeBytes)
	orDefault(&c.L1IWays, d.L1IWays)
	orDefault(&c.L1DSizeBytes, d.L1DSizeBytes)
	orDefault(&c.L1DWays, d.L1DWays)
	orDefault(&c.L1IMSHRs, d.L1IMSHRs)
	orDefault(&c.L1DLatency, d.L1DLatency)
	orDefault(&c.MispredictPenalty, d.MispredictPenalty)
	orDefault(&c.BTBMissPenaltyTaken, d.BTBMissPenaltyTaken)
	orDefault(&c.BTBMissPenaltyDecode, d.BTBMissPenaltyDecode)
	orDefault(&c.RASDepth, d.RASDepth)
	orDefault(&c.WrongPathBlocks, d.WrongPathBlocks)
	if c.TAGE.BaseEntries == 0 {
		c.TAGE = d.TAGE
	}
	return c
}

func orDefault[T int | uint64](v *T, def T) {
	if *v == 0 {
		*v = def
	}
}

type robEntry struct {
	complete uint64
	inst     isa.Inst
	taken    bool
	target   isa.Addr
}

// Core is one simulated tile's processor.
type Core struct {
	cf     Config
	design prefetch.Design
	stream wl.Stream
	image  *isa.Image
	uncore *Uncore
	tage   *bpred.TAGE
	ras    *bpred.RAS
	l1i    *cache.Cache
	l1d    *cache.Cache
	mshr   *cache.MSHRFile

	// Prefetch buffer (optional): block -> fill latency, with
	// pfbOrder[pfbHead:] tracking FIFO age oldest-first. Eviction advances
	// the head; the slice compacts in place once the dead prefix reaches
	// capacity, so inserts are amortized O(1) and never allocate after the
	// one-time 2x-capacity reservation.
	pfb      *blockmap.Map[uint64]
	pfbOrder []isa.BlockID
	pfbHead  int

	// prefLat remembers the fill latency of prefetched L1i lines (CMAL).
	prefLat blockmap.Map[uint64]

	// Branch-footprint construction and caching (variable-length ISA).
	bfCache *blockmap.Map[isa.BF]

	cycle uint64

	// Idle-cycle fast-forward state (not checkpointed; recomputed by the
	// first full Tick after a restore). While cycle < idleWake, every Tick
	// is a proven pure stall: it charges ffCause and advances the clock,
	// mutating nothing else. See computeIdleWake for the proof obligations.
	idleWake uint64
	ffCause  obs.StallCause
	// qz is the design's quiescence probe (nil disables fast-forward for
	// designs without one); noFF force-disables the fast path (the
	// metamorphic reference configuration).
	qz   prefetch.Quiescer
	noFF bool

	// Fetch state.
	step     wl.Step
	haveStep bool
	last2    [2]isa.Addr
	curBlock isa.BlockID
	haveCur  bool
	gateDone bool
	waiting  bool
	waitBlk  isa.BlockID

	stallUntil uint64
	stallBTB   bool // cause of the active redirect bubble

	// ROB ring buffer.
	rob      []robEntry
	robHead  int
	robCount int

	// Per-cycle bookkeeping.
	delivered   int
	transitions int            // demand block transitions this cycle (one L1i port)
	cycleCause  obs.StallCause // what to charge if nothing delivered this cycle

	startup bool // before first delivery

	// Observability hooks (nil when disabled) and the coalesced stall-run
	// tracer state; see obs.go.
	hooks   ObsHooks
	trCause obs.StallCause
	trStart uint64

	// post is the outbox of posted mode (the sharded engine, see posted.go),
	// nil when requests go straight to the uncore; box backs it. skip is the
	// tests' switch for breaking a patch on purpose (SkipPatches).
	post *outbox
	box  outbox
	skip Patch

	// totalRetired counts retirements monotonically across metric resets
	// (the watchdog's progress counter; see Progress).
	totalRetired uint64
	// totalDelivered counts ROB insertions monotonically; together with
	// totalRetired it closes the ROB conservation equation checked by Audit.
	totalDelivered uint64

	// M collects measurement-window metrics.
	M Metrics
}

// New wires a core to its instruction stream (a workload walker or a trace
// replayer), design, and uncore.
func New(cf Config, stream wl.Stream, image *isa.Image, design prefetch.Design, uncore *Uncore) *Core {
	c := &Core{
		cf:      cf,
		design:  design,
		stream:  stream,
		image:   image,
		uncore:  uncore,
		tage:    bpred.NewTAGE(cf.TAGE),
		ras:     bpred.NewRAS(cf.RASDepth),
		l1i:     cache.New(cf.L1ISizeBytes, cf.L1IWays),
		l1d:     cache.New(cf.L1DSizeBytes, cf.L1DWays),
		mshr:    cache.NewMSHRFile(cf.L1IMSHRs),
		rob:     make([]robEntry, cf.ROBEntries),
		startup: true,
	}
	// prefLat is bounded by resident L1i lines still holding their
	// prefetched flag; presizing to the line count makes it allocation-free.
	c.prefLat = *blockmap.New[uint64](cf.L1ISizeBytes / isa.BlockBytes)
	if cf.PrefetchBufferEntries > 0 {
		c.pfb = blockmap.New[uint64](cf.PrefetchBufferEntries)
		c.pfbOrder = make([]isa.BlockID, 0, 2*cf.PrefetchBufferEntries)
	}
	if image.Mode == isa.Variable {
		c.bfCache = blockmap.New[isa.BF](1024)
	}
	c.qz, _ = design.(prefetch.Quiescer)
	design.Bind(c)
	return c
}

// Design returns the attached design.
func (c *Core) Design() prefetch.Design { return c.design }

// L1I exposes the instruction cache (harness hooks).
func (c *Core) L1I() *cache.Cache { return c.l1i }

// MSHRs exposes the L1i miss-status holding registers (harness hooks and
// fault-injection tests).
func (c *Core) MSHRs() *cache.MSHRFile { return c.mshr }

// ResetMetrics zeroes the measurement counters (end of warm-up) and restarts
// the stall-run tracer so exported spans never straddle the window boundary.
func (c *Core) ResetMetrics() {
	c.M = Metrics{}
	c.trCause = obs.StallNone
	c.trStart = c.cycle
}

// ---- prefetch.Env implementation ----

// Cycle implements prefetch.Env.
func (c *Core) Cycle() uint64 { return c.cycle }

// L1iContains implements prefetch.Env.
func (c *Core) L1iContains(b isa.BlockID) bool {
	c.M.CacheLookups++
	if c.l1i.Contains(b) {
		return true
	}
	if c.pfb != nil {
		return c.pfb.Contains(b)
	}
	return false
}

// L1iLine implements prefetch.Env.
func (c *Core) L1iLine(b isa.BlockID) *cache.Line { return c.l1i.Line(b) }

// InFlight implements prefetch.Env.
func (c *Core) InFlight(b isa.BlockID) bool {
	_, ok := c.mshr.Lookup(b)
	return ok
}

// IssuePrefetch implements prefetch.Env.
func (c *Core) IssuePrefetch(b isa.BlockID, buffered bool) bool {
	if c.cf.PerfectL1i {
		return false
	}
	if c.l1i.Contains(b) {
		return false
	}
	if c.mshr.Full() {
		// A viable prefetch lost to MSHR pressure — the drop the tracer
		// distinguishes from the benign already-present filters above.
		c.emit(obs.EvPrefetchDrop, uint64(b), 0)
		return false
	}
	if _, ok := c.mshr.Lookup(b); ok {
		return false
	}
	if c.pfb != nil && c.pfb.Contains(b) {
		return false
	}
	if !c.image.ContainsBlock(b) {
		// Beyond the code image: a real fetch would return garbage; the
		// request still costs bandwidth.
		return false
	}
	ready := c.access(b, true, sinkPrefetch)
	c.M.ExtRequests++
	c.M.LLCLatencySum += ready - c.cycle
	c.M.LLCLatencyCnt++
	m := c.mshr.Alloc(b, c.cycle, ready, true)
	if m == nil {
		c.emit(obs.EvPrefetchDrop, uint64(b), 0)
		return false
	}
	m.Buffered = buffered
	c.M.PrefetchesIssued++
	if c.post != nil && c.hooks.Tracer != nil {
		c.post.reqs[len(c.post.reqs)-1].ev = c.hooks.Tracer.Total() + 1
	}
	c.emit(obs.EvPrefetchIssue, uint64(b), ready-c.cycle)
	return true
}

// Predecode implements prefetch.Env.
func (c *Core) Predecode(b isa.BlockID) []isa.Branch {
	if c.image.Mode == isa.Fixed {
		return isa.PredecodeBlock(c.image, b)
	}
	// Variable-length ISA: boundaries come from the virtualized branch
	// footprint fetched with the block (or read from the DV-LLC).
	bf, ok := c.bfCache.Get(b)
	if !ok {
		bf, ok = c.uncore.LLC.LoadBF(b)
		if !ok {
			return nil
		}
	}
	var out []isa.Branch
	for _, off := range bf.Offsets() {
		if br, okDec := isa.DecodeBranchAt(c.image, b, off); okDec {
			out = append(out, br)
		}
	}
	return out
}

// DecodeBranchAt implements prefetch.Env.
func (c *Core) DecodeBranchAt(b isa.BlockID, off uint8) (isa.Branch, bool) {
	return isa.DecodeBranchAt(c.image, b, off)
}

// PredictTaken implements prefetch.Env.
func (c *Core) PredictTaken(pc isa.Addr) bool { return c.tage.Predict(pc) }

// ---- simulation ----

// Tick advances the core one cycle. Cores are ticked in tile order by the
// runner, making shared-fabric contention deterministic.
func (c *Core) Tick() {
	if c.cycle < c.idleWake {
		// Pure-stall fast path: computeIdleWake proved that every cycle up
		// to idleWake charges ffCause and mutates nothing else, so the full
		// fetch/retire/design machinery is skipped bit-exactly.
		c.M.chargeStall(c.ffCause)
		if c.hooks.Tracer != nil {
			c.traceStall(c.ffCause)
		}
		c.cycle++
		c.M.Cycles++
		return
	}

	c.processFills()
	c.retire()

	c.delivered = 0
	c.transitions = 0
	c.cycleCause = obs.StallNone
	for i := 0; i < c.cf.FetchWidth; i++ {
		if !c.fetchOne() {
			break
		}
	}
	if c.delivered == 0 {
		cause := c.cycleCause
		if cause == obs.StallNone && c.startup {
			cause = obs.StallStartup
		}
		c.M.chargeStall(cause)
		if c.hooks.Tracer != nil {
			c.traceStall(cause)
		}
	} else {
		c.M.BusyCycles++
		if c.hooks.Tracer != nil {
			c.traceStall(obs.StallNone)
		}
	}
	c.M.DeliveredSlots += uint64(c.delivered)

	c.design.Tick()
	c.cycle++
	c.M.Cycles++

	c.computeIdleWake()
}

// computeIdleWake decides, at the end of a full Tick, whether the cycles
// ahead are provably pure stalls, and if so how far. A cycle is a pure
// stall when Tick would only charge one stall cause and advance the clock;
// that holds exactly when, at the start of the cycle:
//
//   - nothing delivered last cycle and the charged cause was one of
//     icache-wait, redirect bubble (mispredict or BTB), or backend (ROB
//     full). The empty-FTQ cause is excluded: FTQGate is re-consulted every
//     stalled cycle and may mutate design state;
//   - the design's Tick is quiescent (Quiescer): it would mutate no state
//     and probe nothing (probes count cache lookups);
//   - no MSHR fill is due, no ROB head completes (retirement mutates
//     metrics and calls design hooks), and no redirect bubble expires
//     before the cycle. All fetch-side stall checks then re-derive the
//     identical cause from identical state — the stalled fetchOne path
//     reads (robCount, stallUntil, l1i residency) and mutates nothing, and
//     never draws from the instruction stream (a pending step is always
//     held while stalled).
//
// The wakeup is the earliest of those three event times; idleWake is left
// at zero (no fast path) when any obligation fails. The window is bounded
// by component latencies (redirect bubbles and LLC/DRAM round trips), so
// the livelock watchdog's cadence is unaffected.
func (c *Core) computeIdleWake() {
	c.idleWake = 0
	if c.noFF || c.delivered != 0 {
		return
	}
	cause := c.cycleCause
	switch cause {
	case obs.StallICache, obs.StallMispred, obs.StallBTB, obs.StallBackend:
	default:
		return
	}
	if c.qz == nil || !c.qz.Quiescent() {
		return
	}
	// c.cycle has already advanced past the tick that charged cause, so all
	// comparisons below ask about the NEXT tick. A redirect-bubble cause is
	// only re-derived while the bubble is live (fetchOne stalls on
	// cycle < stallUntil); if the bubble has expired for the next tick,
	// fetch resumes and that tick must run in full.
	if cause == obs.StallMispred || cause == obs.StallBTB {
		if c.stallUntil <= c.cycle {
			return
		}
	}
	wake := ^uint64(0)
	if c.robCount > 0 {
		wake = c.rob[c.robHead].complete
	}
	if er, ok := c.mshr.EarliestReady(); ok && er < wake {
		wake = er
	}
	if c.cycle < c.stallUntil && c.stallUntil < wake {
		wake = c.stallUntil
	}
	if wake == ^uint64(0) || wake <= c.cycle {
		return
	}
	c.idleWake = wake
	c.ffCause = cause
}

// IdleWake returns the cycle of the core's next required full Tick, or 0
// when the next Tick cannot be skipped. While nonzero, every Tick before
// the returned cycle is a pure stall charging a fixed cause, which lets the
// runner advance the whole machine in one jump (FastForward).
func (c *Core) IdleWake() uint64 { return c.idleWake }

// FastForward advances the core n cycles through a pure-stall window in one
// step, bit-exact with n individual Ticks. The caller must ensure
// Cycle()+n <= IdleWake().
func (c *Core) FastForward(n uint64) {
	c.M.chargeStallN(c.ffCause, n)
	if c.hooks.Tracer != nil {
		// Open (or extend) the coalesced stall span exactly as the first
		// skipped cycle's Tick would; the span closes at the next cause
		// change, so the trace bytes cannot tell the jump happened.
		c.traceStall(c.ffCause)
	}
	c.cycle += n
	c.M.Cycles += n
}

// SetFastForward enables or disables the idle-cycle fast path (enabled by
// default). The disabled configuration is the metamorphic reference: it
// executes every cycle through the full tick machinery.
func (c *Core) SetFastForward(on bool) {
	c.noFF = !on
	if !on {
		c.idleWake = 0
	}
}

// processFills applies completed misses. Ready returns entry copies (the
// table slots may be reused by prefetches the design issues from OnFill),
// so each original is freed before its fill is applied.
func (c *Core) processFills() {
	for _, m := range c.mshr.Ready(c.cycle) {
		c.mshr.Free(m.Block)
		isPrefetch := m.Prefetch && !m.Demanded
		if isPrefetch {
			c.hooks.PrefetchLat.Observe(m.Latency())
			c.emit(obs.EvPrefetchFill, uint64(m.Block), m.Latency())
		} else {
			c.hooks.DemandLat.Observe(m.Latency())
			c.emit(obs.EvDemandFill, uint64(m.Block), m.Latency())
		}
		if isPrefetch && m.Buffered && c.pfb != nil {
			c.pfbInsert(m.Block, m.Latency())
		} else {
			line, ev, evicted := c.l1i.Insert(m.Block)
			if evicted {
				if ev.Flags&cache.FlagPrefetched != 0 {
					c.M.UselessEvicts++
				}
				c.prefLat.Delete(ev.Block)
				c.design.OnEvict(ev)
			}
			if isPrefetch {
				line.Flags |= cache.FlagPrefetched
				c.prefLat.Put(m.Block, m.Latency())
				c.M.PrefetchFills++
			}
		}
		if c.bfCache != nil {
			if bf, ok := c.uncore.LLC.LoadBF(m.Block); ok {
				c.bfCache.Put(m.Block, bf)
			}
		}
		c.design.OnFill(m.Block, isPrefetch)
		if c.waiting && c.waitBlk == m.Block {
			c.waiting = false
		}
	}
}

// pfbLive returns the buffer's FIFO order, oldest first.
func (c *Core) pfbLive() []isa.BlockID { return c.pfbOrder[c.pfbHead:] }

// pfbInsert adds a block to the FIFO prefetch buffer.
func (c *Core) pfbInsert(b isa.BlockID, lat uint64) {
	if c.pfb.Contains(b) {
		return
	}
	if len(c.pfbOrder)-c.pfbHead >= c.cf.PrefetchBufferEntries {
		old := c.pfbOrder[c.pfbHead]
		c.pfbHead++
		c.pfb.Delete(old)
		c.M.UselessEvicts++
	}
	if c.pfbHead >= c.cf.PrefetchBufferEntries {
		// Compact the dead prefix so the backing array stays at 2x capacity.
		n := copy(c.pfbOrder, c.pfbOrder[c.pfbHead:])
		c.pfbOrder = c.pfbOrder[:n]
		c.pfbHead = 0
	}
	c.pfb.Put(b, lat)
	c.pfbOrder = append(c.pfbOrder, b)
	c.M.PrefetchFills++
}

// pfbTake removes and returns a block's prefetch-buffer entry.
func (c *Core) pfbTake(b isa.BlockID) (uint64, bool) {
	lat, ok := c.pfb.Get(b)
	if !ok {
		return 0, false
	}
	c.pfb.Delete(b)
	live := c.pfbLive()
	for i, x := range live {
		if x == b {
			copy(live[i:], live[i+1:])
			c.pfbOrder = c.pfbOrder[:len(c.pfbOrder)-1]
			break
		}
	}
	return lat, true
}

// retire commits finished ROB entries.
func (c *Core) retire() {
	for n := 0; n < c.cf.RetireWidth && c.robCount > 0; n++ {
		e := &c.rob[c.robHead]
		if e.complete > c.cycle {
			return
		}
		c.M.Retired++
		c.totalRetired++
		c.design.OnRetire(e.inst, e.taken, e.target)
		if c.bfCache != nil && e.inst.Kind.IsBranch() {
			c.recordBF(e.inst)
		}
		c.robHead = (c.robHead + 1) % len(c.rob)
		c.robCount--
	}
}

// recordBF folds a committed branch into its block's branch footprint and
// writes it through to the DV-LLC (variable-length ISA support).
func (c *Core) recordBF(inst isa.Inst) {
	b := isa.BlockOf(inst.PC)
	bf, _ := c.bfCache.Get(b)
	bf.Add(uint8(isa.ByteOffset(inst.PC)))
	c.bfCache.Put(b, bf)
	c.uncore.LLC.StoreBF(b, bf)
}

func (c *Core) robFull() bool { return c.robCount == len(c.rob) }

// fetchOne tries to deliver one instruction; it returns false when fetch
// must stop for this cycle.
func (c *Core) fetchOne() bool {
	if c.robFull() {
		c.cycleCause = obs.StallBackend
		return false
	}
	if c.cycle < c.stallUntil {
		if c.stallBTB {
			c.cycleCause = obs.StallBTB
		} else {
			c.cycleCause = obs.StallMispred
		}
		return false
	}
	if !c.haveStep {
		c.stream.Next(&c.step)
		c.haveStep = true
	}
	pc := c.step.Inst.PC
	b := isa.BlockOf(pc)

	if !c.haveCur || b != c.curBlock {
		// The fetch unit performs one demand I-cache access per cycle:
		// crossing into a second new block waits for the next cycle.
		if c.transitions >= 1 {
			return false
		}
		if !c.transition(pc, b) {
			return false
		}
		c.transitions++
	}
	c.deliver()
	return true
}

// transition performs the demand block change: FTQ gating, cache access,
// miss handling. It returns true when fetch may proceed into the block.
func (c *Core) transition(pc isa.Addr, b isa.BlockID) bool {
	if c.waiting {
		if c.waitBlk != b {
			c.waiting = false // stale wait after a path change
		} else if c.l1i.Contains(b) {
			c.waiting = false
			c.finishTransition(b)
			return true
		} else {
			c.cycleCause = obs.StallICache
			return false
		}
	}
	if !c.gateDone {
		if !c.design.FTQGate(pc) {
			c.cycleCause = obs.StallFTQ
			return false
		}
		c.gateDone = true
	}
	if c.demandAccess(b) {
		c.finishTransition(b)
		return true
	}
	c.waiting = true
	c.waitBlk = b
	c.cycleCause = obs.StallICache
	return false
}

func (c *Core) finishTransition(b isa.BlockID) {
	c.curBlock = b
	c.haveCur = true
	c.gateDone = false
}

// demandAccess looks up the L1i for a committed-path block transition,
// handling prefetch-buffer promotion, late-prefetch merging, and miss issue.
func (c *Core) demandAccess(b isa.BlockID) bool {
	c.M.DemandAccesses++
	if c.cf.PerfectL1i {
		return true
	}
	c.M.CacheLookups++
	seq := c.haveCur && b == c.curBlock+1

	line := c.l1i.Access(b)
	if line == nil && c.pfb != nil {
		if lat, ok := c.pfbTake(b); ok {
			var ev cache.Evicted
			var evicted bool
			line, ev, evicted = c.l1i.Insert(b)
			if evicted {
				if ev.Flags&cache.FlagPrefetched != 0 {
					c.M.UselessEvicts++
				}
				c.prefLat.Delete(ev.Block)
				c.design.OnEvict(ev)
			}
			c.M.CMALCovered += lat
			c.M.CMALTotal += lat
			c.M.UsefulPrefetches++
		}
	}

	if line != nil {
		if line.Flags&cache.FlagPrefetched != 0 {
			lat, _ := c.prefLat.Get(b)
			c.prefLat.Delete(b)
			c.M.CMALCovered += lat
			c.M.CMALTotal += lat
			c.M.UsefulPrefetches++
		}
		c.design.OnDemand(b, true, c.last2)
		// The design may have consumed the flag (SN4L); clear it for
		// everyone else so a line counts as useful once.
		line.Flags &^= cache.FlagPrefetched
		return true
	}

	// Miss.
	c.M.DemandMisses++
	if seq {
		c.M.SeqMisses++
	} else {
		c.M.DiscMisses++
	}
	if m, ok := c.mshr.Lookup(b); ok {
		m.Demanded = true
		if m.Prefetch {
			lat := m.Latency()
			waited := m.ReadyCycle - c.cycle
			if waited > lat {
				waited = lat
			}
			c.M.CMALCovered += lat - waited
			c.M.CMALTotal += lat
			c.M.LateMisses++
			c.M.UsefulPrefetches++
			if c.post != nil {
				c.post.late = append(c.post.late, lateMerge{block: b, issue: m.IssueCycle, lat: lat})
			}
		}
	} else {
		ready := c.access(b, true, sinkDemand)
		c.M.ExtRequests++
		c.M.LLCLatencySum += ready - c.cycle
		c.M.LLCLatencyCnt++
		c.mshr.AllocDemand(b, c.cycle, ready)
	}
	c.design.OnDemand(b, false, c.last2)
	return false
}

// deliver pushes the current instruction into the ROB and resolves its
// control flow (penalties, predictor/BTB training, RAS).
func (c *Core) deliver() {
	inst := c.step.Inst
	complete := c.cycle + c.cf.PipelineDepth + c.execLatency(&c.step)
	tail := (c.robHead + c.robCount) % len(c.rob)
	c.rob[tail] = robEntry{complete: complete, inst: inst, taken: c.step.Taken, target: c.step.TargetPC}
	c.robCount++
	c.totalDelivered++
	c.delivered++
	c.startup = false

	if inst.Kind.IsBranch() {
		c.resolveBranch(&c.step)
	}

	c.last2[0], c.last2[1] = c.last2[1], inst.PC
	c.haveStep = false
}

// execLatency models per-instruction execution latency; loads access the
// data hierarchy.
func (c *Core) execLatency(s *wl.Step) uint64 {
	switch s.Inst.Kind {
	case isa.KindLoad:
		c.M.LoadCount++
		db := isa.BlockOf(s.DataAddr)
		if c.l1d.Access(db) != nil {
			return c.cf.L1DLatency
		}
		c.M.L1DMisses++
		ready := c.access(db, false, sinkLoad)
		c.l1d.Insert(db)
		return c.cf.L1DLatency + (ready - c.cycle)
	case isa.KindStore:
		c.M.StoreCount++
		c.l1d.Insert(isa.BlockOf(s.DataAddr))
		return 1
	default:
		return 1
	}
}

// resolveBranch charges redirect penalties and trains the predictors. The
// timing model resolves branches at fetch (charging the appropriate
// pipeline-position penalty) rather than holding a shadow pipeline.
func (c *Core) resolveBranch(s *wl.Step) {
	inst := s.Inst
	pc := inst.PC
	actualTaken := s.Taken

	switch inst.Kind {
	case isa.KindCondBranch:
		c.M.CondBranches++
		pred := c.tage.Predict(pc)
		c.tage.Update(pc, actualTaken)
		target, btbHit := c.design.BTBLookup(pc, inst.Kind)
		if c.cf.PerfectBTB {
			target, btbHit = inst.Target, true
		}
		if pred != actualTaken {
			c.M.Mispredicts++
			wrong := inst.NextPC()
			if !actualTaken && btbHit {
				wrong = target
			}
			c.redirect(c.cf.MispredictPenalty, false, wrong)
		} else if actualTaken && (!btbHit || target != s.TargetPC) {
			// Predicted taken but the frontend had no target: sequential
			// fetch continues until the branch resolves.
			c.M.BTBMissEvents++
			c.redirect(c.cf.BTBMissPenaltyTaken, true, inst.NextPC())
		}
		c.design.BTBCommit(pc, inst.Kind, inst.Target, actualTaken)

	case isa.KindJump, isa.KindCall:
		if !actualTaken {
			// Elided deep call (modelled as inlined); no transfer occurred.
			return
		}
		c.tage.UpdateHistoryUncond(s.TargetPC)
		target, btbHit := c.design.BTBLookup(pc, inst.Kind)
		if c.cf.PerfectBTB {
			target, btbHit = inst.Target, true
		}
		if !btbHit || target != s.TargetPC {
			c.M.BTBMissEvents++
			c.redirect(c.cf.BTBMissPenaltyDecode, true, inst.NextPC())
		}
		if inst.Kind == isa.KindCall {
			c.ras.Push(inst.NextPC())
		}
		c.design.BTBCommit(pc, inst.Kind, s.TargetPC, true)

	case isa.KindReturn:
		c.tage.UpdateHistoryUncond(s.TargetPC)
		_, btbHit := c.design.BTBLookup(pc, inst.Kind)
		if c.cf.PerfectBTB {
			btbHit = true
		}
		rasTarget, ok := c.ras.Pop()
		switch {
		case !btbHit:
			// The frontend did not know this was a branch at all.
			c.M.BTBMissEvents++
			c.redirect(c.cf.BTBMissPenaltyDecode, true, inst.NextPC())
		case !ok || rasTarget != s.TargetPC:
			c.M.Mispredicts++
			c.redirect(c.cf.MispredictPenalty, false, inst.NextPC())
		}
		c.design.BTBCommit(pc, inst.Kind, s.TargetPC, true)

	case isa.KindIndirect:
		if !actualTaken {
			return
		}
		c.tage.UpdateHistoryUncond(s.TargetPC)
		target, btbHit := c.design.BTBLookup(pc, inst.Kind)
		if c.cf.PerfectBTB {
			target, btbHit = s.TargetPC, true
		}
		switch {
		case !btbHit:
			c.M.BTBMissEvents++
			c.redirect(c.cf.BTBMissPenaltyDecode, true, inst.NextPC())
		case target != s.TargetPC:
			c.M.Mispredicts++
			c.redirect(c.cf.MispredictPenalty, false, target)
		}
		// Indirect call: the walker pushes a return frame.
		c.ras.Push(inst.NextPC())
		c.design.BTBCommit(pc, inst.Kind, s.TargetPC, true)
	}
}

// redirect charges a frontend bubble, informs the design, and injects
// wrong-path fetches down the bogus continuation.
func (c *Core) redirect(penalty uint64, btbInduced bool, wrongPC isa.Addr) {
	if c.cycle+penalty > c.stallUntil {
		c.stallUntil = c.cycle + penalty
		c.stallBTB = btbInduced
	}
	c.design.OnRedirect(c.step.NextPC)
	// The in-flight transition state is stale after a redirect.
	c.gateDone = false
	c.wrongPath(wrongPC)
}

// wrongPath models fetch continuing down an incorrect path during the
// redirect shadow: sequential blocks from the bogus continuation are looked
// up and, on a miss, fetched — polluting the cache and consuming bandwidth.
func (c *Core) wrongPath(pc isa.Addr) {
	if c.cf.PerfectL1i || pc == 0 {
		return
	}
	b0 := isa.BlockOf(pc)
	for i := 0; i < c.cf.WrongPathBlocks; i++ {
		b := b0 + isa.BlockID(i)
		if !c.image.ContainsBlock(b) {
			return
		}
		c.M.WrongPathFetches++
		c.M.CacheLookups++
		hit := c.l1i.Contains(b)
		if hit {
			continue
		}
		if c.pfb != nil && c.pfb.Contains(b) {
			continue
		}
		if _, ok := c.mshr.Lookup(b); ok {
			continue
		}
		if c.mshr.Full() {
			return
		}
		ready := c.access(b, true, sinkWrongPath)
		c.M.ExtRequests++
		c.mshr.AllocDemand(b, c.cycle, ready)
	}
}
