// Package difftest is the differential validation harness: it drives the
// timing simulator and the functional reference model (internal/oracle) in
// lockstep over the same seeds and asserts they observe the same
// architecture. The paper's conclusions rest on every frontend design being
// architecturally inert — free to change *when* blocks arrive, forbidden to
// change *what* retires — and this harness is the machine-checked form of
// that invariant.
//
// The mechanism is a Shim: a prefetch.Design wrapper installed between the
// core and the real design. The core cannot tell it is being watched — the
// shim forwards every hook and capability unchanged — but every OnRetire is
// checked against the oracle's retired stream, every OnDemand against the
// oracle's block-transition stream, and (in strict mode) every first-touch
// hit against the set of prefetches the design actually issued through the
// Env. The first disagreement is captured with its cycle, so the report can
// dump the surrounding event-trace window from the PR-3 observability layer
// for triage.
package difftest

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"dnc/internal/cache"
	wl "dnc/internal/cfg"
	"dnc/internal/checkpoint"
	"dnc/internal/core"
	"dnc/internal/isa"
	"dnc/internal/obs"
	"dnc/internal/oracle"
	"dnc/internal/prefetch"
	"dnc/internal/sim"
)

// maxDivergences bounds how many divergences one shim records. After the
// first divergence the oracle and the simulator are out of step, so later
// records mostly restate the first; a few extras help triage cascades.
const maxDivergences = 8

// digestStride is how often (in retired instructions) a shim checkpoints
// its observed-stream digest for cross-design comparison.
const digestStride = 1024

// windowCycles is the half-width of the event-trace window dumped around
// the first divergence.
const windowCycles = 256

// Divergence is one disagreement between the timing simulator and the
// reference model.
type Divergence struct {
	Core  int
	Cycle uint64
	// Kind is the violated invariant: "retire" (retired stream),
	// "transition" (demand block-transition stream), or "first-touch-hit"
	// (a block hit on first touch without a recorded prefetch — phantom
	// residency, strict mode only).
	Kind string
	// Index is the ordinal within the stream the divergence occurred in
	// (retired instructions or transitions observed by this core so far).
	Index uint64
	Want  string
	Got   string
}

func (d Divergence) String() string {
	return fmt.Sprintf("core %d cycle %d %s[%d]: want %s, got %s",
		d.Core, d.Cycle, d.Kind, d.Index, d.Want, d.Got)
}

// Shim wraps a real design, forwarding everything while checking the
// core-to-design traffic against the oracle. It implements prefetch.Design;
// Name reports the inner design's name so checkpoints, results and reports
// are indistinguishable from an unshimmed run.
type Shim struct {
	inner prefetch.Design
	// retirer is inner as a prefetch.Retirer, nil when it is none. The shim
	// itself is always one, since it checks every retirement.
	retirer prefetch.Retirer
	model   *oracle.Model
	coreID  int
	strict  bool
	env     prefetch.Env // the raw core Env (for Cycle at divergence time)
	// maxSteps bounds the oracle's replays when a snapshot is loaded
	// (sim.RunConfig.StepBound of the run the shim sits in).
	maxSteps uint64

	// issued records every block the inner design successfully prefetched
	// through the Env (cache-direct and buffered alike).
	issued map[isa.BlockID]struct{}

	// pending is the block of a transition announced as a miss whose
	// completion retry (the core re-runs demandAccess after the fill
	// arrives, reporting a hit) has not been observed yet. The completion
	// must not consume an oracle transition.
	pending     isa.BlockID
	havePending bool

	retired     uint64
	transitions uint64

	// obsDigest folds the *observed* retired tuples (as opposed to the
	// oracle's, which Model.Digest folds) so cross-design stream-identity
	// checks compare two independently computed values.
	obsDigest uint64
	// digestTrail holds obsDigest snapshots every digestStride retires.
	digestTrail []uint64

	divergences []Divergence
}

// NewShim wraps inner with a lockstep checker replaying the same committed
// stream through model. coreID labels divergences; strict additionally
// checks the phantom-residency invariant, which requires the run to disable
// wrong-path fetch pollution (a negative core.Config.WrongPathBlocks).
func NewShim(inner prefetch.Design, model *oracle.Model, coreID int, strict bool) *Shim {
	retirer, _ := inner.(prefetch.Retirer)
	return &Shim{
		inner:     inner,
		retirer:   retirer,
		model:     model,
		coreID:    coreID,
		strict:    strict,
		issued:    make(map[isa.BlockID]struct{}),
		obsDigest: 14695981039346656037,
	}
}

// Inner returns the wrapped design (harness probes reach through the shim).
func (s *Shim) Inner() prefetch.Design { return s.inner }

// Divergences returns what the shim caught, in observation order.
func (s *Shim) Divergences() []Divergence { return s.divergences }

// Ok reports a divergence-free run so far.
func (s *Shim) Ok() bool { return len(s.divergences) == 0 }

// Model exposes the oracle replaying this core's stream.
func (s *Shim) Model() *oracle.Model { return s.model }

func (s *Shim) diverge(kind string, index uint64, want, got string) {
	if len(s.divergences) >= maxDivergences {
		return
	}
	var cycle uint64
	if s.env != nil {
		cycle = s.env.Cycle()
	}
	s.divergences = append(s.divergences, Divergence{
		Core: s.coreID, Cycle: cycle, Kind: kind, Index: index, Want: want, Got: got,
	})
}

// shimEnv interposes the Env the inner design sees, recording successful
// prefetch issues. It embeds the core's Env so every capability forwards
// unchanged; TraceDiscontinuity is forwarded explicitly because interface
// embedding does not satisfy optional-capability type assertions.
type shimEnv struct {
	prefetch.Env
	s *Shim
}

func (e *shimEnv) IssuePrefetch(b isa.BlockID) bool {
	ok := e.Env.IssuePrefetch(b)
	if ok {
		e.s.issued[b] = struct{}{}
	}
	return ok
}

func (e *shimEnv) TraceDiscontinuity(b isa.BlockID) {
	if ts, ok := e.Env.(prefetch.TraceSink); ok {
		ts.TraceDiscontinuity(b)
	}
}

// ---- prefetch.Design ----

// Name implements Design, reporting the inner design's name so shimmed runs
// (and their checkpoints) are identity-compatible with unshimmed ones.
func (s *Shim) Name() string { return s.inner.Name() }

// Bind implements Design.
func (s *Shim) Bind(env prefetch.Env) {
	s.env = env
	s.inner.Bind(&shimEnv{Env: env, s: s})
}

// BTBLookup implements Design.
func (s *Shim) BTBLookup(pc isa.Addr, kind isa.Kind) (isa.Addr, bool) {
	return s.inner.BTBLookup(pc, kind)
}

// BTBCommit implements Design.
func (s *Shim) BTBCommit(pc isa.Addr, kind isa.Kind, target isa.Addr, taken bool) {
	s.inner.BTBCommit(pc, kind, target, taken)
}

// OnDemand implements Design: check the transition against the oracle's
// collapsed block stream, then forward. The core calls OnDemand once per
// transition that hits, and twice per transition that misses (the miss,
// then the hit when the retry after the fill succeeds); only the first call
// of a transition consumes an oracle transition.
func (s *Shim) OnDemand(b isa.BlockID, hit bool, last2 [2]isa.Addr) {
	if s.havePending && b == s.pending {
		// Completion retry of an announced miss (or a repeat miss if the
		// fill was evicted before the retry): same transition, no draw.
		if hit {
			s.havePending = false
		}
		s.inner.OnDemand(b, hit, last2)
		return
	}
	tr := s.model.NextTransition()
	s.transitions++
	s.havePending = !hit
	s.pending = b
	if tr.Block != b {
		s.diverge("transition", s.transitions,
			fmt.Sprintf("block %d", tr.Block), fmt.Sprintf("block %d", b))
	} else if s.strict && tr.First && hit {
		if _, ok := s.issued[b]; !ok {
			s.diverge("first-touch-hit", s.transitions,
				fmt.Sprintf("block %d absent on first touch (no prefetch issued)", b),
				"L1i hit")
		}
	}
	s.inner.OnDemand(b, hit, last2)
}

// OnFill implements Design.
func (s *Shim) OnFill(b isa.BlockID, prefetch bool) { s.inner.OnFill(b, prefetch) }

// OnEvict implements Design.
func (s *Shim) OnEvict(ev cache.Evicted) { s.inner.OnEvict(ev) }

// OnRetire implements prefetch.Retirer: check the committed instruction
// against the oracle's retired stream, then forward it to an inner design
// that is a Retirer too. Being a Retirer makes a shimmed core keep the
// ROB-head wake whatever the inner design, so the shim sees every retirement
// in a full Tick.
func (s *Shim) OnRetire(inst isa.Inst, taken bool, target isa.Addr) {
	var want wl.Step
	s.model.NextRetire(&want)
	s.retired++
	if want.Inst.PC != inst.PC || want.Inst.Kind != inst.Kind ||
		want.Taken != taken || want.TargetPC != target {
		s.diverge("retire", s.retired,
			fmt.Sprintf("pc=%#x kind=%d taken=%v target=%#x",
				want.Inst.PC, want.Inst.Kind, want.Taken, want.TargetPC),
			fmt.Sprintf("pc=%#x kind=%d taken=%v target=%#x",
				inst.PC, inst.Kind, taken, target))
	}
	for _, v := range [...]uint64{uint64(inst.PC), uint64(inst.Kind), b2u(taken), uint64(target)} {
		for i := 0; i < 8; i++ {
			s.obsDigest ^= v & 0xFF
			s.obsDigest *= 1099511628211
			v >>= 8
		}
	}
	if s.retired%digestStride == 0 {
		s.digestTrail = append(s.digestTrail, s.obsDigest)
	}
	if s.retirer != nil {
		s.retirer.OnRetire(inst, taken, target)
	}
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// FTQGate implements Design.
func (s *Shim) FTQGate(pc isa.Addr) bool { return s.inner.FTQGate(pc) }

// OnRedirect implements Design.
func (s *Shim) OnRedirect(pc isa.Addr) { s.inner.OnRedirect(pc) }

// Tick implements Design.
func (s *Shim) Tick() { s.inner.Tick() }

// Quiescent forwards the inner design's fast-forward eligibility
// (prefetch.Quiescer). Without this forwarding, shimmed runs would never
// fast-forward and the metamorphic fast-forward-vs-reference tests would be
// vacuous. The shim itself adds no per-cycle state: its checks fire only on
// design hooks (OnDemand/OnRetire/...), none of which fires inside a
// pure-stall window (the shim is a Retirer, so its core wakes to retire), so
// the shim is quiescent whenever the inner design is.
func (s *Shim) Quiescent() bool {
	if q, ok := s.inner.(prefetch.Quiescer); ok {
		return q.Quiescent()
	}
	return false
}

// BufferEntries forwards the inner design's prefetch.Bufferer, so a shimmed
// Shotgun's core gets its buffer.
func (s *Shim) BufferEntries() int {
	if b, ok := s.inner.(prefetch.Bufferer); ok {
		return b.BufferEntries()
	}
	return 0
}

// StorageBits implements Design.
func (s *Shim) StorageBits() int { return s.inner.StorageBits() }

// Audit forwards the optional structural-audit capability so shimmed runs
// keep the inner design's invariants under sim.Audit.
func (s *Shim) Audit() []error {
	if a, ok := s.inner.(interface{ Audit() []error }); ok {
		return a.Audit()
	}
	return nil
}

// State implements Design: the shim persists the oracle and its own
// lockstep position ahead of the inner design's state, so a resumed run is
// differential-transparent — the restored oracle continues checking from
// the interruption point.
func (s *Shim) State(c *checkpoint.Codec) {
	c.Begin("difftest-shim")
	s.model.State(c, s.maxSteps)
	c.U64(&s.retired)
	c.U64(&s.transitions)
	c.Bool(&s.havePending)
	checkpoint.Word(c, &s.pending)
	c.U64(&s.obsDigest)
	checkpoint.Words(c, "digest trail", &s.digestTrail, checkpoint.Unbounded)
	checkpoint.Set(c, "issued prefetches", s.issued, checkpoint.Unbounded)
	c.End()
	s.inner.State(c)
}

// ---- differential runner ----

// Options configures one differential run.
type Options struct {
	// Workload and Seed identify the committed streams (per-core walker
	// seeds derive from Seed exactly as in a plain run).
	Workload wl.Params
	Seed     int64
	// NewDesign constructs the design under test (one instance per core).
	NewDesign     func() prefetch.Design
	Cores         int
	Warm, Measure uint64
	// Core optionally overrides the core configuration; nil selects the
	// defaults.
	Core *core.Config
	// Strict enables the phantom-residency check (first-touch hits must be
	// backed by an issued prefetch) and turns wrong-path fetch off, since
	// wrong-path fills legitimately create first-touch hits.
	Strict bool
	// TraceEvents sizes the event-trace ring used for divergence windows
	// (0 selects a small default).
	TraceEvents int
	// Wrap, when non-nil, passes each core's committed stream through a
	// mutator (fault injection; see sim.RunInjected). Injected runs cannot
	// checkpoint.
	Wrap sim.StreamWrapper
	// CheckpointEvery/CheckpointPath/ResumeFrom pass through to the
	// simulator, letting tests prove checkpoint/resume is
	// differential-transparent.
	CheckpointEvery uint64
	CheckpointPath  string
	ResumeFrom      string
	// DisableFastForward passes through to the simulator: the reference
	// configuration for the metamorphic fast-forward equivalence tests.
	DisableFastForward bool
	// Sched and IntraJobs pass through to the simulator, so the engine
	// equivalence tests can run the oracle lockstep under every engine
	// (tick reference, serial loop, sharded loop).
	Sched     sim.SchedMode
	IntraJobs int
}

// Report is the outcome of one differential run.
type Report struct {
	Workload string
	Design   string
	Seed     int64
	Cores    int

	// Aggregate reference statistics (summed over cores).
	Retired      uint64
	Transitions  uint64
	FirstTouches uint64
	SeqFirst     uint64
	DiscFirst    uint64
	BranchSites  int

	// Divergences from all cores, ordered by (cycle, core). Empty means
	// the run was equivalent to the reference model.
	Divergences []Divergence
	// Window is the event-trace slice around the first divergence (empty
	// when the run was clean or tracing was disabled).
	Window []obs.Event
	// DigestTrail holds each core's observed-stream digest checkpoints
	// (every digestStride retires) for cross-design identity checks.
	DigestTrail [][]uint64
}

// Ok reports a divergence-free run.
func (r *Report) Ok() bool { return len(r.Divergences) == 0 }

// String renders the report; with divergences it shows the first one and
// the surrounding event window for triage.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "difftest %s on %s seed %d (%d cores): ", r.Design, r.Workload, r.Seed, r.Cores)
	if r.Ok() {
		fmt.Fprintf(&b, "OK — %d retired, %d transitions (%d first-touch: %d seq, %d disc), %d branch sites",
			r.Retired, r.Transitions, r.FirstTouches, r.SeqFirst, r.DiscFirst, r.BranchSites)
		return b.String()
	}
	fmt.Fprintf(&b, "%d divergence(s)\n", len(r.Divergences))
	fmt.Fprintf(&b, "first divergence: %s\n", r.Divergences[0])
	for _, d := range r.Divergences[1:] {
		fmt.Fprintf(&b, "  then: %s\n", d)
	}
	if len(r.Window) > 0 {
		fmt.Fprintf(&b, "event window (±%d cycles around cycle %d):\n",
			windowCycles, r.Divergences[0].Cycle)
		for _, ev := range r.Window {
			fmt.Fprintf(&b, "  cycle %-10d core %-2d %-16s arg=%d dur=%d\n",
				ev.Cycle, ev.Core, ev.Kind, ev.Arg, ev.Dur)
		}
	} else {
		b.WriteString("event window unavailable (tracer disabled or events evicted)")
	}
	return b.String()
}

// Run executes one simulation with every core's design shimmed against the
// oracle and returns the simulator result plus the differential report. The
// error covers simulator failures only; divergences are data, reported in
// the Report.
func Run(ctx context.Context, o Options) (sim.Result, *Report, error) {
	prog := sim.Program(o.Workload)

	var cc core.Config
	if o.Core != nil {
		cc = *o.Core
	}
	if o.Strict {
		// Wrong-path fills install blocks without design involvement,
		// which would trip the phantom-residency check.
		cc.WrongPathBlocks = -1
	}

	trace := o.TraceEvents
	if trace == 0 {
		trace = 1 << 12
	}

	var (
		shims    []*Shim
		maxSteps uint64
	)
	rc := sim.RunConfig{
		Workload:           o.Workload,
		Cores:              o.Cores,
		WarmCycles:         o.Warm,
		MeasureCycles:      o.Measure,
		Seed:               o.Seed,
		Core:               cc,
		Obs:                &obs.Config{TraceEvents: trace},
		CheckpointEvery:    o.CheckpointEvery,
		CheckpointPath:     o.CheckpointPath,
		ResumeFrom:         o.ResumeFrom,
		DisableFastForward: o.DisableFastForward,
		Sched:              o.Sched,
		IntraJobs:          o.IntraJobs,
		NewDesign: func() prefetch.Design {
			i := len(shims)
			s := NewShim(o.NewDesign(), oracle.New(prog, sim.WalkerSeed(o.Seed, i)), i, o.Strict)
			s.maxSteps = maxSteps
			shims = append(shims, s)
			return s
		},
	}

	maxSteps = rc.StepBound()

	var (
		res sim.Result
		err error
	)
	if o.Wrap != nil {
		res, err = sim.RunInjected(ctx, rc, o.Wrap)
	} else {
		res, err = sim.RunChecked(ctx, rc)
	}
	if err != nil {
		return res, nil, err
	}
	return res, buildReport(&o, &res, shims), nil
}

func buildReport(o *Options, res *sim.Result, shims []*Shim) *Report {
	rep := &Report{
		Workload:    o.Workload.Name,
		Design:      res.Design,
		Seed:        o.Seed,
		Cores:       len(shims),
		DigestTrail: make([][]uint64, len(shims)),
	}
	for i, s := range shims {
		m := s.Model()
		rep.Retired += s.retired
		rep.Transitions += s.transitions
		rep.FirstTouches += m.FirstTouches
		rep.SeqFirst += m.SeqFirst
		rep.DiscFirst += m.DiscFirst
		rep.BranchSites += m.BranchSites()
		rep.Divergences = append(rep.Divergences, s.Divergences()...)
		rep.DigestTrail[i] = append([]uint64(nil), s.digestTrail...)
	}
	sort.SliceStable(rep.Divergences, func(i, j int) bool {
		a, b := rep.Divergences[i], rep.Divergences[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		return a.Core < b.Core
	})
	if len(rep.Divergences) > 0 && res.Obs != nil {
		at := rep.Divergences[0].Cycle
		lo := uint64(0)
		if at > windowCycles {
			lo = at - windowCycles
		}
		hi := at + windowCycles
		for _, ev := range res.Obs.Events {
			if ev.Cycle >= lo && ev.Cycle <= hi {
				rep.Window = append(rep.Window, ev)
			}
		}
	}
	return rep
}
