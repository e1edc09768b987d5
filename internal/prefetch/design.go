// Package prefetch implements every frontend design evaluated in the paper,
// the 17 entries of Catalog:
//
//   - baseline: no prefetching;
//   - the sequential family NL, N2L, N4L and N8L, plus NL-miss and NL-tagged
//     (NXL with a trigger policy);
//   - the proposed SN4L, Dis, SN4L+Dis and SN4L+Dis+BTB (Proactive);
//   - the conventional discontinuity prefetcher and RDIP;
//   - the temporal prefetchers PIF and Confluence (the SHIFT upper-bound
//     configuration);
//   - the BTB-directed boomerang and shotgun.
//
// A Design bundles a prefetch engine with its BTB organization; the core
// (internal/core) drives it through the hooks below and supplies the Env
// capabilities (cache probes, prefetch issue, pre-decoding). A mechanism
// two designs share is written once, as a part the designs embed:
//
//   - ConvBTB (convbtb.go), the conventional BTB front and its BTBLookup and
//     BTBCommit, for every design except boomerang and shotgun;
//   - fdipWalk (fdip.go), the fetch-directed walk of boomerang and shotgun:
//     FTQ, basic-block recorder, stall and retry, FTQ gate, span enqueue and
//     speculative RAS;
//   - temporalStream (temporal.go), the history, index and replay of PIF and
//     Confluence.
package prefetch

import (
	"dnc/internal/cache"
	"dnc/internal/checkpoint"
	"dnc/internal/isa"
)

// Env is the frontend environment a Design operates in, implemented by the
// simulated core. All cache probes are counted toward the design's cache
// lookups (Figure 14).
type Env interface {
	// Cycle returns the current core cycle.
	Cycle() uint64

	// L1iContains probes the instruction cache tag array (counted as a
	// cache lookup) without disturbing replacement state.
	L1iContains(b isa.BlockID) bool

	// L1iLine returns the resident line's metadata, or nil (not counted as
	// a lookup; models the local prefetch-status bits stored with lines).
	L1iLine(b isa.BlockID) *cache.Line

	// InFlight reports an outstanding miss for b.
	InFlight(b isa.BlockID) bool

	// IssuePrefetch sends a prefetch for b to the memory hierarchy. It
	// reports false if the block is resident, already in flight, or no MSHR
	// is available. The issued fill arrives into the L1i (the proposed
	// design prefetches directly into the cache), or into the core's L1i
	// prefetch buffer when the design has one (see Bufferer).
	IssuePrefetch(b isa.BlockID) bool

	// Predecode returns the branches of a block, decoding its raw bytes.
	// For fixed-length ISAs the whole block decodes in parallel; for
	// variable-length ISAs the offsets come from the virtualized branch
	// footprint, and nil is returned when no footprint is available.
	Predecode(b isa.BlockID) []isa.Branch

	// DecodeBranchAt decodes a single instruction at a byte offset and
	// reports whether it is a branch (the Dis replay path).
	DecodeBranchAt(b isa.BlockID, off uint8) (isa.Branch, bool)

	// PredictTaken consults the core's direction predictor without
	// updating it (used by BTB-directed engines walking ahead of fetch).
	PredictTaken(pc isa.Addr) bool
}

// TraceSink is an optional capability of the Env: an event tracer for
// prefetch decisions. Designs that want their triggers in the trace check
// for it at Bind time; cores without observability simply don't implement
// it, and test fakes of Env need not care.
type TraceSink interface {
	// TraceDiscontinuity records that a recorded discontinuity was replayed
	// into a prefetch candidate for block b.
	TraceDiscontinuity(b isa.BlockID)
}

// Quiescer is an optional capability of a Design used by the engine's
// idle-cycle fast-forward: Quiescent reports that the next Tick call would
// be a provable no-op — it would mutate no design state and make no Env
// calls (Env probes count cache lookups, so even a read-only probe is a
// metric mutation). While a core is stalled with a quiescent design, the
// engine may skip Tick calls entirely and jump to the core's next wakeup;
// a wrong true here silently changes simulation results, which is why the
// difftest metamorphic suite runs every catalog design with fast-forward
// on and off and requires bit-identical outcomes.
//
// Base returns true (its Tick is the empty function), so a design that
// overrides Tick with real work MUST also override Quiescent — the
// inherited default would let the engine skip its ticks.
//
// Quiescence covers Tick only. A skipped window still retires what its
// cycles would have (Retirer says when that forces a wake), and fills,
// redirects and demand transitions always end a window, so the other hooks
// never fire inside one.
type Quiescer interface {
	// Quiescent reports that Tick would currently be a no-op.
	Quiescent() bool
}

// Retirer is an optional capability of a Design: it observes every
// committed instruction, in order, exactly once (for footprint and metadata
// construction from the retired stream). A design without it never sees the
// retired stream, which lets the engine retire inside a pure-stall window
// without waking the core: a stalled core's ROB head completing is then no
// event. A Retirer keeps that wake, so each of its OnRetire calls happens in
// a full Tick at the retiring cycle.
type Retirer interface {
	// OnRetire observes one committed instruction; taken and target are its
	// resolved control flow.
	OnRetire(inst isa.Inst, taken bool, target isa.Addr)
}

// Bufferer is an optional capability of a Design: an L1i prefetch buffer of
// BufferEntries blocks (Shotgun's 64), read once when the core is built. The
// core then adds a fully associative buffer that every prefetch fills and a
// demand hit promotes from; with none, or 0 entries, prefetches fill the L1i.
type Bufferer interface {
	BufferEntries() int
}

// OccupancyReporter is an optional capability of a Design: engines with a
// fetch-target or candidate queue expose its occupancy so the observability
// layer can sample it as a gauge.
type OccupancyReporter interface {
	// QueueOccupancy returns the current total queued entries.
	QueueOccupancy() int
}

// Probes are the event counters of a design's own that no core metric
// carries, for the experiments that study one design's internals. A run's
// result carries their sums over the cores in place of the design instances,
// which die with the machine.
type Probes struct {
	UBTBLookups, UBTBFootprintMiss   uint64 // Shotgun's U-BTB (Figure 1)
	ReplayTableHits, ReplayNotBranch uint64 // Dis replay outcomes (Figure 12)
}

// Prober is an optional capability of a Design: it has Probes to report.
type Prober interface {
	// AddProbes adds the design's counters to p.
	AddProbes(p *Probes)
}

// Design is a frontend configuration: BTB organization plus prefetcher.
type Design interface {
	// Name identifies the design in reports.
	Name() string

	// Bind attaches the core environment before simulation starts.
	Bind(env Env)

	// BTBLookup is consulted by the fetch unit when it reaches a branch.
	// It returns the predicted target (meaningful for taken paths) and
	// whether the branch was known to the BTB organization.
	BTBLookup(pc isa.Addr, kind isa.Kind) (isa.Addr, bool)

	// BTBCommit trains the BTB organization with a resolved branch.
	BTBCommit(pc isa.Addr, kind isa.Kind, target isa.Addr, taken bool)

	// OnDemand observes a demand block transition in fetch. hit reports an
	// L1i hit; last2 are the PCs of the two most recently fetched
	// instructions (used by Dis recording, per the SPARC delay slot).
	OnDemand(b isa.BlockID, hit bool, last2 [2]isa.Addr)

	// OnFill observes a block fill arriving at the L1i; prefetch marks
	// prefetcher-initiated fills.
	OnFill(b isa.BlockID, prefetch bool)

	// OnEvict observes an L1i eviction.
	OnEvict(ev cache.Evicted)

	// FTQGate reports whether fetch may proceed into the block holding pc.
	// Designs without a fetch-directing engine always return true;
	// BTB-directed designs return false while their fetch target queue has
	// not yet delivered that block (the empty-FTQ stall of Table I).
	FTQGate(pc isa.Addr) bool

	// OnRedirect informs the design that fetch redirected to pc (branch
	// misprediction, BTB-miss resolution, or FTQ divergence).
	OnRedirect(pc isa.Addr)

	// Tick advances the design by one cycle (queue processing).
	Tick()

	// StorageBits returns the design's per-core metadata storage budget in
	// bits (Table II).
	StorageBits() int

	// State walks the design's mutable state (BTB organization, prefetcher
	// metadata, queues, walk state) for checkpointing: saved, or loaded into
	// an identically configured design, by the one walk.
	State(c *checkpoint.Codec)
}

// Base provides no-op defaults for Design hooks; concrete designs embed it.
type Base struct {
	env Env
}

// Bind implements Design.
func (b *Base) Bind(env Env) { b.env = env }

// E returns the bound environment.
func (b *Base) E() Env { return b.env }

// OnDemand implements Design.
func (*Base) OnDemand(isa.BlockID, bool, [2]isa.Addr) {}

// OnFill implements Design.
func (*Base) OnFill(isa.BlockID, bool) {}

// OnEvict implements Design.
func (*Base) OnEvict(cache.Evicted) {}

// FTQGate implements Design.
func (*Base) FTQGate(isa.Addr) bool { return true }

// OnRedirect implements Design.
func (*Base) OnRedirect(isa.Addr) {}

// Tick implements Design.
func (*Base) Tick() {}

// Quiescent implements Quiescer: the no-op Tick above is always a no-op.
// Designs that override Tick must override this too (see Quiescer).
func (*Base) Quiescent() bool { return true }

// StorageBits implements Design.
func (*Base) StorageBits() int { return 0 }

// pushBounded pushes v onto a stack of at most depth entries, dropping the
// oldest entry when the stack is full. With pop it is every return stack
// here: the speculative RAS of the fetch-directed walk, Shotgun's
// footprint-owner stack and RDIP's shadow RAS.
func pushBounded[T any](s []T, v T, depth int) []T {
	if len(s) == depth {
		copy(s, s[1:])
		s = s[:depth-1]
	}
	return append(s, v)
}

// pop pops the top of a stack; it reports false on an empty one.
func pop[T any](s *[]T) (T, bool) {
	n := len(*s)
	if n == 0 {
		var none T
		return none, false
	}
	v := (*s)[n-1]
	*s = (*s)[:n-1]
	return v, true
}

// State implements Design for stateless designs: an empty tagged section,
// so the snapshot layout stays aligned for designs that have nothing to
// save. Stateful designs must override it.
func (*Base) State(c *checkpoint.Codec) {
	c.Begin("design-stateless")
	c.End()
}
