// Package sim assembles complete simulations: a generated workload, N cores
// each with their own frontend design instance, and the shared uncore. It
// implements the SimFlex-style methodology of the paper scaled to a software
// artifact: deterministic seeded samples, a warm-up window, and a
// measurement window, with cross-run derived metrics (speedup, coverage,
// FSCR) computed against a baseline run of the same workload and seeds.
package sim

import (
	"sync"

	wl "dnc/internal/cfg"
	"dnc/internal/core"
	"dnc/internal/llc"
	"dnc/internal/obs"
	"dnc/internal/prefetch"
)

// SchedMode selects whether idle cores sleep while the machine advances.
type SchedMode uint8

const (
	// SchedWheel (the default) lets a core that reports a pure-stall window
	// (core.IdleWake) sleep in the per-core sleep table until its next
	// required full Tick, so a cycle only touches cores with work at that
	// cycle and an all-asleep machine jumps straight to the earliest wake.
	// It keeps the name of the timing wheel it once used, since the Engine
	// stamp is part of every encoded Result. Bit-exact with SchedTick by
	// construction.
	SchedWheel SchedMode = iota
	// SchedTick is the reference: the same serial loop with sleeping off, so
	// every core Ticks every cycle. It exists as the metamorphic reference
	// for the equivalence tests, mirroring DisableFastForward.
	SchedTick
)

// String names the mode as stamped into Result.Engine.
func (s SchedMode) String() string {
	if s == SchedTick {
		return "tick"
	}
	return "wheel"
}

// RunConfig describes one simulation.
type RunConfig struct {
	Workload wl.Params
	// NewDesign constructs one design instance per core.
	NewDesign func() prefetch.Design
	// Cores is the number of active cores (placed on tiles 0..Cores-1 of
	// the 4x4 mesh). The paper simulates 16.
	Cores int
	// WarmCycles and MeasureCycles bound the two windows (paper: 200K+200K).
	WarmCycles, MeasureCycles uint64
	// Seed offsets every core's walker seed; different seeds model
	// independent measurement samples.
	Seed int64
	// Core overrides the per-core configuration (zero value = defaults).
	Core core.Config
	// LLC overrides the LLC configuration: each zero field takes its
	// default, so the zero value is llc.DefaultConfig(), whose DV setting
	// is resolved from the workload (on exactly for variable-length code).
	LLC llc.Config
	// WatchdogCycles is the livelock threshold: the run aborts (through
	// RunChecked; Run panics) when no core retires an instruction for this
	// many consecutive cycles. 0 selects DefaultWatchdogCycles; negative
	// disables the watchdog.
	WatchdogCycles int64
	// CheckpointEvery, when nonzero, snapshots the full machine state to
	// CheckpointPath at least every given number of cycles (aligned to the
	// engine's poll cadence). The structural invariant auditor runs before
	// every snapshot; a violation aborts the run instead of persisting a
	// corrupt snapshot. Injected runs cannot checkpoint (see
	// ErrInjectedCheckpoint).
	CheckpointEvery uint64
	// CheckpointPath is the snapshot file. Writes are atomic (temp file +
	// rename), so the file always holds the last complete snapshot. The
	// livelock watchdog additionally dumps a post-mortem snapshot to
	// CheckpointPath + ".livelock" when it aborts a run.
	CheckpointPath string
	// ResumeFrom, when set, restores the machine from the given snapshot
	// file before running, continuing the interrupted window bit-exactly.
	// The snapshot must have been taken from an identical configuration
	// (workload, design, seed, core count, window lengths).
	ResumeFrom string
	// Obs, when non-nil, enables the observability layer: latency and
	// occupancy histograms, stall-span/event tracing, and per-window gauge
	// sampling, folded into Result.Obs. Observability is diagnostic state:
	// it is not checkpointed and does not perturb timing.
	Obs *obs.Config
	// DisableFastForward forces every cycle through the full tick machinery,
	// disabling the idle-cycle fast path (on by default). Fast-forward is
	// bit-exact by construction — identical retired streams, metrics, traces,
	// and checkpoint bytes — so this exists only as the metamorphic reference
	// for the equivalence tests and for engine debugging.
	DisableFastForward bool
	// Sched selects whether idle cores sleep: yes by default (zero value),
	// no under the SchedTick reference. Both produce bit-identical results;
	// see SchedMode.
	Sched SchedMode
	// IntraJobs shards the cores of this one run across goroutines that
	// post their shared-fabric (NoC/LLC/DRAM) requests and meet every
	// lookahead epoch to replay them in serial order (see parEngine), so
	// results are bit-identical to the serial loop at any shard count and
	// GOMAXPROCS. 0 = idle CPUs: re-decided at every poll boundary, the run
	// takes the CPUs other simulations of the process leave free, at most
	// one per coresPerShard cores; runs of 4 cores or fewer, event-traced
	// runs and the cases below stay serial. 1 runs serially; N > 1 forces N
	// shards (clamped to the core count), which SchedTick refuses (the
	// reference stays strictly serial) and which needs a walker-driven run.
	// Variable-length ISA runs are always serial.
	IntraJobs int
	// OnAdvance, when non-nil, is called at every engine poll boundary (the
	// checkEvery cadence and the end of each window) with the global cycle
	// the machine has actually advanced to — including cycles covered by
	// fast-forward jumps. Progress reporting hooks onto this; it must be
	// cheap and must not touch the machine.
	OnAdvance func(cycle uint64)
}

// Result is the outcome of one simulation run.
type Result struct {
	Workload string
	Design   string
	// Engine names the SchedMode that produced the run, "tick" or "wheel",
	// whatever the shard count. All engines are bit-exact, so this is
	// provenance, not a cache key.
	Engine string
	// Shards is the most goroutines the run's cores were split across (1 =
	// serial). Under IntraJobs 0 it depends on the host's idle CPUs, so it
	// stays out of every encoding of the result: two hosts simulating one
	// cell produce identical bytes.
	Shards int `json:"-"`
	// M aggregates all cores' measurement-window metrics.
	M core.Metrics
	// PerCore holds each core's metrics.
	PerCore []core.Metrics
	// LLC, mesh and memory statistics for the measurement window.
	LLCStats llc.Stats
	// LLCOccupancy is the LLC's valid lines when the measurement window
	// opened and when it closed (the first 0 on a run resumed inside the
	// window: snapshots do not carry it). A diagnostic like Shards, it stays
	// out of every encoding of the result, so no digest depends on it.
	LLCOccupancy [2]int `json:"-"`
	// TickedCycles is how many core-cycles, over both windows and all
	// cores, the engine advanced through Tick, one cycle a call, rather than
	// in a FastForward jump: the engine's own work, cores x cycles at most (a
	// resumed run counts from its restore). Host-side like Shards, it stays
	// out of every encoding of the result.
	TickedCycles uint64 `json:"-"`
	NoCFlits     uint64
	NoCQueued    uint64
	DRAMQueued   uint64
	StorageBits  int
	// Probes sums, over the cores, the counters of a design that exports
	// any (prefetch.Prober: e.g. Shotgun's footprint misses); nil otherwise.
	// It is what remains of the design instances, so a Result is plain data
	// that reaches nothing of the machine that produced it. Not part of the
	// portable form (runner.ResultJSON): a journaled result has none.
	Probes *prefetch.Probes
	// Obs holds the run's observability snapshot when RunConfig.Obs was set
	// (nil otherwise). Trace events live only in memory; JSON encodings of
	// the Result carry the histogram and counter snapshots.
	Obs *obs.RunObs
}

// warmCap bounds how many generated programs (2-24 MB each) a process keeps
// built. It holds the named catalog — 7 workloads, two modes — with room for
// an experiment's overrides, so a sweep over it generates each once, while a
// process that generates programs without end (the fuzzing harness) keeps
// the most recently used ones and regenerates the rest on demand. The LLC
// state a run starts from is no entry here: it is computed from the
// program's image inside each run's own LLC (llc.Warm).
const warmCap = 32

// warm caches the generated programs every run of their parameters shares.
// Generation is deterministic in the parameters and a program is immutable
// once built, so an evicted one that comes back is regenerated identically.
// The Params value itself is the key — every field participates, since
// generation is deterministic in the full parameter set, so any two distinct
// sets must get distinct entries (a key of just Name|Mode|Footprint|GenSeed
// once served the wrong program to parameter sets that varied only a
// branch-mix knob).
var warm struct {
	mu   sync.Mutex
	tick uint64
	m    map[wl.Params]*warmEntry
}

type warmEntry struct {
	used uint64 // warm.tick at the last lookup; guarded by warm.mu

	// build runs once: callers that arrive together for a program nothing
	// has built yet (a fresh worker's first cells) wait for one build
	// instead of each making their own. prog is read-only after it.
	build sync.Once
	built bool
	prog  *wl.Program
}

// Program returns the (cached) generated program for the parameters,
// evicting the least recently used one to make room. The caller only reads
// what it gets, so a program evicted while a run still uses it is simply
// collected afterwards.
func Program(p wl.Params) *wl.Program {
	for {
		warm.mu.Lock()
		e := warm.m[p]
		if e == nil {
			if len(warm.m) >= warmCap {
				var oldest wl.Params
				least := ^uint64(0)
				for op, oe := range warm.m {
					if oe.used < least {
						oldest, least = op, oe.used
					}
				}
				delete(warm.m, oldest)
			}
			if warm.m == nil {
				warm.m = make(map[wl.Params]*warmEntry)
			}
			e = new(warmEntry)
			warm.m[p] = e
		}
		warm.tick++
		e.used = warm.tick
		warm.mu.Unlock()

		e.build.Do(func() {
			// A build that panics (parameters Generate refuses) leaves no
			// entry behind: the panic is its caller's, and whoever waited on
			// it or asks again builds afresh and gets their own.
			defer func() {
				if !e.built {
					warm.mu.Lock()
					if warm.m[p] == e {
						delete(warm.m, p)
					}
					warm.mu.Unlock()
				}
			}()
			e.prog = wl.Generate(p)
			e.built = true
		})
		if e.built {
			return e.prog
		}
	}
}

// Run executes one simulation and returns its result. It panics on
// misconfiguration or livelock; callers that need failures as data (sweep
// engines, CLIs) should use RunChecked instead.
func Run(rc RunConfig) Result {
	r, err := runChecked(nil, rc, nil)
	if err != nil {
		panic(err)
	}
	return r
}

// ---- derived cross-run metrics ----

// IPC returns the aggregate IPC of a run.
func IPC(r Result) float64 { return r.M.IPC() }

// Speedup returns r's performance normalized to base (same workload/seed).
func Speedup(r, base Result) float64 {
	b := base.M.IPC()
	if b == 0 {
		return 0
	}
	return r.M.IPC() / b
}

// MissCoverage returns the fraction of the baseline's L1i demand misses
// (per kilo-instruction) eliminated by the design.
func MissCoverage(r, base Result) float64 {
	b := base.M.MPKI(base.M.DemandMisses)
	if b == 0 {
		return 0
	}
	c := 1 - r.M.MPKI(r.M.DemandMisses)/b
	return c
}

// SeqMissCoverage is MissCoverage restricted to sequential misses (Fig. 3).
func SeqMissCoverage(r, base Result) float64 {
	b := base.M.MPKI(base.M.SeqMisses)
	if b == 0 {
		return 0
	}
	return 1 - r.M.MPKI(r.M.SeqMisses)/b
}

// perInst returns count/retired, or 0 when nothing retired (a failed or
// degenerate run contributes a defined zero instead of NaN/Inf).
func perInst(count, retired uint64) float64 {
	if retired == 0 {
		return 0
	}
	return float64(count) / float64(retired)
}

// FSCR returns the frontend stall cycle reduction (Fig. 15): the fraction
// of the baseline's L1i/BTB-induced stall cycles (per instruction)
// eliminated by the design. Runs with zero retirement contribute 0.
func FSCR(r, base Result) float64 {
	if r.M.Retired == 0 {
		return 0
	}
	bi := perInst(base.M.FrontendStalls(), base.M.Retired)
	if bi == 0 {
		return 0
	}
	return 1 - perInst(r.M.FrontendStalls(), r.M.Retired)/bi
}

// BandwidthRatio returns r's L1i external requests per instruction relative
// to base (Fig. 5). Runs with zero retirement contribute 0.
func BandwidthRatio(r, base Result) float64 {
	b := perInst(base.M.ExtRequests, base.M.Retired)
	if b == 0 {
		return 0
	}
	return perInst(r.M.ExtRequests, r.M.Retired) / b
}

// LookupRatio returns r's L1i cache lookups per instruction relative to
// base (Fig. 14). Runs with zero retirement contribute 0.
func LookupRatio(r, base Result) float64 {
	b := perInst(base.M.CacheLookups, base.M.Retired)
	if b == 0 {
		return 0
	}
	return perInst(r.M.CacheLookups, r.M.Retired) / b
}
