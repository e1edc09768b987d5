package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync/atomic"

	wl "dnc/internal/cfg"
	"dnc/internal/checkpoint"
	"dnc/internal/core"
	"dnc/internal/isa"
	"dnc/internal/llc"
	"dnc/internal/noc"
	"dnc/internal/obs"
	"dnc/internal/prefetch"
)

// DefaultWatchdogCycles is the livelock threshold used when
// RunConfig.WatchdogCycles is zero: the run aborts when no core retires a
// single instruction for this many consecutive cycles. Legitimate runs
// retire continuously (the longest stalls are redirect bubbles and LLC/DRAM
// round trips, i.e. tens to hundreds of cycles), so this is three orders of
// magnitude above any real stall.
const DefaultWatchdogCycles = 100_000

// checkEvery is the cadence, in cycles, at which the engine polls the
// context and the watchdog. It keeps the hot tick loop branch-cheap.
const checkEvery = 1 << 10

// applyDefaults fills the zero-valued fields of a RunConfig with the
// paper's defaults (shared by Run and the checked variants).
func applyDefaults(rc RunConfig) RunConfig {
	if rc.Cores == 0 {
		rc.Cores = 4
	}
	if rc.WarmCycles == 0 {
		rc.WarmCycles = 200_000
	}
	if rc.MeasureCycles == 0 {
		rc.MeasureCycles = 200_000
	}
	if rc.LLC.DV == llc.DVDefault {
		// Variable-length workloads need the DV-LLC for branch footprints.
		rc.LLC.DV = llc.DVOff
		if rc.Workload.Mode == isa.Variable {
			rc.LLC.DV = llc.DVOn
		}
	}
	rc.LLC = rc.LLC.Normalized()
	if rc.WatchdogCycles == 0 {
		rc.WatchdogCycles = DefaultWatchdogCycles
	}
	return rc
}

// Validate reports whether the configuration can be simulated. Zero-valued
// fields are interpreted as their defaults (see Run). It catches the
// misconfigurations that would otherwise surface as panics or nonsense
// results deep inside the machine model.
func (rc RunConfig) Validate() error {
	rc = applyDefaults(rc)
	if rc.NewDesign == nil {
		return errors.New("sim: RunConfig.NewDesign is nil")
	}
	if rc.Cores < 1 || rc.Cores > noc.Tiles {
		return fmt.Errorf("sim: Cores = %d outside the %dx%d mesh (1..%d)",
			rc.Cores, noc.Width, noc.Height, noc.Tiles)
	}
	if rc.Workload.FootprintBytes <= 0 {
		return fmt.Errorf("sim: workload %q has non-positive footprint %d",
			rc.Workload.Name, rc.Workload.FootprintBytes)
	}
	w := &rc.Workload
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"CondFrac", w.CondFrac}, {"JumpFrac", w.JumpFrac},
		{"CallFrac", w.CallFrac}, {"IndirectCallFrac", w.IndirectCallFrac},
		{"StableBiasFrac", w.StableBiasFrac}, {"TakenBias", w.TakenBias},
		{"WeakBias", w.WeakBias}, {"BackwardFrac", w.BackwardFrac},
		{"RareBlockFrac", w.RareBlockFrac}, {"RareExecProb", w.RareExecProb},
		{"HotFuncFrac", w.HotFuncFrac}, {"HotCallProb", w.HotCallProb},
		{"LoadFrac", w.LoadFrac}, {"StoreFrac", w.StoreFrac},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("sim: workload %q: %s = %v outside [0,1]",
				w.Name, f.name, f.v)
		}
	}
	if s := w.CondFrac + w.JumpFrac + w.CallFrac; s > 1 {
		return fmt.Errorf("sim: workload %q: branch kind fractions sum to %v > 1", w.Name, s)
	}
	if s := w.LoadFrac + w.StoreFrac; s > 1 {
		return fmt.Errorf("sim: workload %q: memory op fractions sum to %v > 1", w.Name, s)
	}
	if rc.CheckpointEvery > 0 && rc.CheckpointPath == "" {
		return errors.New("sim: CheckpointEvery set without CheckpointPath")
	}
	if rc.IntraJobs < 0 {
		return fmt.Errorf("sim: IntraJobs = %d is negative", rc.IntraJobs)
	}
	if rc.IntraJobs > 1 && rc.Sched == SchedTick {
		return errors.New("sim: IntraJobs > 1 cannot apply to the tick reference (it is strictly serial)")
	}
	if rc.Sched > SchedTick {
		return fmt.Errorf("sim: unknown Sched mode %d", rc.Sched)
	}
	return nil
}

// RunError is the failure of one simulation run: a validation error, a
// panic recovered from any layer of the machine model (with its stack), a
// context cancellation/timeout, or a livelock abort. It carries the
// offending configuration so a sweep can report exactly which cell died.
type RunError struct {
	Config RunConfig
	// Stack is the goroutine stack at the point of a recovered panic (nil
	// for non-panic failures).
	Stack []byte
	Err   error
}

// Error implements error.
func (e *RunError) Error() string {
	name := e.Config.Workload.Name
	if name == "" {
		name = "<unnamed workload>"
	}
	return fmt.Sprintf("sim: run of %s failed: %v", name, e.Err)
}

// Unwrap exposes the cause for errors.Is/As.
func (e *RunError) Unwrap() error { return e.Err }

// ErrLivelock matches (via errors.Is) runs aborted by the watchdog.
var ErrLivelock = errors.New("sim: no retirement progress (livelock)")

// Snapshot is the machine state attached to a livelock abort: what every
// core was stalled on, MSHR occupancy, and the shared-fabric request
// counters at the moment the watchdog fired.
type Snapshot struct {
	Cycle uint64
	Cores []core.DiagSnapshot
	// Shared-fabric activity since the last stats reset: requests injected
	// into the NoC and DRAM, and cumulative cycles spent queued behind busy
	// links / exhausted memory bandwidth.
	NoCPackets uint64
	NoCQueued  uint64
	DRAMAccess uint64
	DRAMQueued uint64
}

// String renders the snapshot compactly for logs.
func (s Snapshot) String() string {
	out := fmt.Sprintf("cycle %d; noc %d pkts (%d queued cyc); dram %d acc (%d queued cyc)",
		s.Cycle, s.NoCPackets, s.NoCQueued, s.DRAMAccess, s.DRAMQueued)
	for _, c := range s.Cores {
		out += fmt.Sprintf("\n  tile %d: retired %d, stalled on %s, rob %d/%d, mshr %d/%d",
			c.Tile, c.Retired, c.StallCause, c.ROBUsed, c.ROBCap, c.MSHRUsed, c.MSHRCap)
	}
	return out
}

// LivelockError is returned (wrapped in a RunError) when aggregate
// retirement made no progress for the watchdog window.
type LivelockError struct {
	// NoProgressCycles is how long retirement was flat before the abort.
	NoProgressCycles uint64
	Snapshot         Snapshot
}

// Error implements error.
func (e *LivelockError) Error() string {
	return fmt.Sprintf("%v after %d cycles without retirement\n%s",
		ErrLivelock, e.NoProgressCycles, e.Snapshot)
}

// Is matches ErrLivelock.
func (e *LivelockError) Is(target error) bool { return target == ErrLivelock }

// WalkerSeed returns the walker seed of core i in a run with RunConfig.Seed
// seed. It is the single definition of the per-core seeding convention, so
// external replays of a core's committed stream (the differential oracle)
// never drift from the simulator's own walkers.
func WalkerSeed(seed int64, i int) int64 { return seed*1000 + int64(i) + 1 }

// RunChecked executes one simulation with full fault isolation: the
// configuration is validated first, panics from any layer of the machine
// model are recovered into a *RunError carrying the config and stack, the
// context is honored (cancellation and deadlines abort the run between
// ticks), and a livelock watchdog aborts with a diagnostic Snapshot when no
// core retires an instruction for RunConfig.WatchdogCycles cycles.
//
// Every returned error is a *RunError; use errors.Is/As to classify the
// cause (context.Canceled, context.DeadlineExceeded, ErrLivelock, ...).
func RunChecked(ctx context.Context, rc RunConfig) (Result, error) {
	return runChecked(ctx, rc, nil)
}

// runChecked is RunChecked with each core's walker stream passed through
// wrap (nil: the walker itself).
func runChecked(ctx context.Context, rc RunConfig, wrap StreamWrapper) (res Result, err error) {
	rc = applyDefaults(rc)
	if verr := rc.Validate(); verr != nil {
		return Result{}, &RunError{Config: rc, Err: verr}
	}
	defer func() {
		if r := recover(); r != nil {
			res = Result{}
			perr, ok := r.(error)
			if !ok {
				perr = fmt.Errorf("panic: %v", r)
			}
			err = &RunError{Config: rc, Err: perr, Stack: debug.Stack()}
		}
	}()

	m, merr := buildMachine(rc, wrap)
	if merr != nil {
		return Result{}, &RunError{Config: rc, Err: merr}
	}
	defer m.close()

	if rc.ResumeFrom != "" {
		if rerr := m.restoreFrom(rc.ResumeFrom); rerr != nil {
			return Result{}, &RunError{Config: rc, Err: rerr}
		}
	}
	if aerr := m.run(ctx); aerr != nil {
		return Result{}, &RunError{Config: rc, Err: aerr}
	}
	return m.result(), nil
}

// machine is one fully assembled simulation: the generated program, the
// per-tile cores with their design instances and instruction streams, the
// shared uncore, and the run's window/watchdog position. It is the unit of
// checkpointing: everything mutable hangs off this struct.
type machine struct {
	rc      RunConfig
	prog    *wl.Program
	uncore  *core.Uncore
	cores   []*core.Core
	designs []prefetch.Design
	// walkers mirrors cores: core i's committed stream is walkers[i], passed
	// through the run's StreamWrapper when wrapped is set. A wrapped stream
	// is not machine state, so a wrapped run cannot checkpoint (see
	// ErrInjectedCheckpoint) and stays serial.
	walkers []*wl.Walker
	wrapped bool
	watch   *watchdog
	// obs is the run's observability state, nil when disabled; the tick loop
	// pays one pointer test per cycle for it.
	obs *machineObs

	// phase is the current window (0 = warm-up, 1 = measurement) and done
	// the cycles completed within it; together with the watchdog counters
	// they locate a snapshot inside the run.
	phase    uint8
	done     uint64
	lastCkpt uint64
	// measuredFrom is the LLC's occupancy when the measurement window
	// opened (Result.LLCOccupancy); not checkpointed, so 0 after a resume
	// inside that window.
	measuredFrom int
	// snap is the buffer every snapshot of this machine is built in (see
	// encode); nil until the first.
	snap []byte

	// eng is the engine-loop state (sleep table, parallel shards). It is
	// derived state, never checkpointed: cores are synced to the global clock
	// at every snapshot, and a restored machine starts with every core awake,
	// so checkpoint bytes are identical across engines.
	eng engineState
}

// engineState carries the per-core sleep table both engine loops share, the
// sharded executor, and the run's share of the process's CPUs.
type engineState struct {
	mode SchedMode
	// asleep and wake are the sleep table: a core that reports a pure-stall
	// window (core.IdleWake) sleeps until wake, the cycle of its next
	// required full Tick, lagging the global clock meanwhile. Under SchedTick
	// no core sleeps. In a sharded epoch a core's entry belongs to whichever
	// shard claimed it, between epochs to the coordinator (the epoch signals
	// order the two).
	asleep []bool
	wake   []uint64
	par    *parEngine // built the first time the run shards
	// limit is the most shards the run may use (shardCount with every CPU
	// idle); shards is how many the current segment uses, peak the most any
	// did, and held what the run counts in cpusHeld.
	limit, shards, peak, held int
}

func buildMachine(rc RunConfig, wrap StreamWrapper) (*machine, error) {
	if wrap != nil && (rc.CheckpointEvery > 0 || rc.ResumeFrom != "") {
		return nil, ErrInjectedCheckpoint
	}
	if wrap != nil && rc.IntraJobs > 1 {
		return nil, errors.New("sim: intra-run parallelism cannot apply to an injected run")
	}
	m := &machine{rc: rc, prog: Program(rc.Workload), wrapped: wrap != nil}
	m.uncore = core.NewUncore(llc.Acquire(rc.LLC))
	m.uncore.Preload(m.prog.Image)
	m.cores = make([]*core.Core, rc.Cores)
	m.designs = make([]prefetch.Design, rc.Cores)
	m.walkers = make([]*wl.Walker, rc.Cores)
	for i := range m.cores {
		cc := rc.Core
		cc.Tile = i
		w := wl.NewWalker(m.prog, WalkerSeed(rc.Seed, i))
		m.walkers[i] = w
		var stream wl.Stream = w
		if wrap != nil {
			stream = wrap(i, w)
		}
		d := rc.NewDesign()
		m.designs[i] = d
		m.cores[i] = core.New(cc, stream, m.prog.Image, d, m.uncore)
	}
	if rc.DisableFastForward {
		for _, c := range m.cores {
			c.SetFastForward(false)
		}
	}
	m.watch = newWatchdog(rc, m.cores, m.uncore)
	m.eng = engineState{
		mode:   rc.Sched,
		asleep: make([]bool, rc.Cores),
		wake:   make([]uint64, rc.Cores),
		limit:  shardCount(rc, m.wrapped, math.MaxInt, 0),
	}
	if rc.Obs != nil {
		m.obs = newMachineObs(*rc.Obs)
		m.obs.attach(m)
	}
	return m, nil
}

// coresPerShard is the fewest cores an automatically sharded run gives each
// shard. Below it a shard's epoch is too little work to pay for the join
// and the serial replay; EXPERIMENTS.md's crossover table sets it. At 4,
// the paper's 16-core CMP may use four CPUs, and every run of 4 cores or
// fewer stays serial.
const coresPerShard = 4

// cpusHeld counts the CPUs this process's running simulations hold: one per
// shard of a sharded run, one for a serial run.
var cpusHeld atomic.Int64

// shardCount decides how many shards a run of rc uses (wrapped: its streams
// pass through a StreamWrapper) while other simulations of the process hold
// others of its procs CPUs. The tick reference and injected runs are serial,
// and so is the variable-length ISA, whose DV-LLC footprint reads and writes
// (LoadBF/StoreBF) need the shared state of the moment. IntraJobs > 0 asks
// for that many shards (1 = serial); 0 uses the idle CPUs, one shard per
// coresPerShard cores at most, except in an event-traced run, which stays
// serial so its trace is the serial engine's.
func shardCount(rc RunConfig, wrapped bool, procs, others int) int {
	switch {
	case rc.Sched == SchedTick, wrapped, rc.Workload.Mode == isa.Variable:
		return 1
	case rc.IntraJobs > 0:
		return min(rc.IntraJobs, rc.Cores)
	case rc.Obs != nil && rc.Obs.TraceEvents > 0:
		return 1
	}
	return max(1, min(rc.Cores/coresPerShard, procs-others))
}

// claimShards decides the shard count of the next segment and books it in
// cpusHeld. The compare-and-swap makes concurrent decisions take turns, so
// each one sees what the others hold.
func (m *machine) claimShards() int {
	e := &m.eng
	if e.limit == 1 && e.held == 1 {
		return 1
	}
	for {
		cur := cpusHeld.Load()
		n := shardCount(m.rc, m.wrapped, runtime.GOMAXPROCS(0), int(cur)-e.held)
		if n == e.held || cpusHeld.CompareAndSwap(cur, cur+int64(n-e.held)) {
			e.held = n
			return n
		}
	}
}

// useShards puts the next segment on n shards. Moving between the serial and
// the sharded loop switches the cores' posted mode and wakes every core (a
// core woken early ticks through a pure stall, which is bit-exact); cores are
// synced to the clock at every segment boundary.
func (m *machine) useShards(n int) {
	e := &m.eng
	if n == e.shards {
		return
	}
	if n > 1 && e.par == nil {
		e.par = newParEngine(m)
	}
	if (n > 1) != (e.shards > 1) {
		var lookahead uint64 // 0: not posted
		if n > 1 {
			lookahead = e.par.lookahead
		}
		for _, c := range m.cores {
			c.SetPosted(lookahead)
		}
		m.resetEngine()
	}
	if n > 1 {
		e.par.resize(n)
	} else if e.par != nil {
		e.par.stop()
	}
	e.shards = n
	e.peak = max(e.peak, n)
}

// resetEngine marks every core awake (after a snapshot restore, where cores
// come back with idleWake unset and the first full Tick recomputes it, and
// when the run switches between the serial and the sharded loop).
func (m *machine) resetEngine() { clear(m.eng.asleep) }

// close releases what the machine holds: shard workers, its CPUs in
// cpusHeld, and the LLC, which goes back to the free list for the next run.
// Nothing that outlives the machine may reach it afterwards; a Result is
// plain data for that reason.
func (m *machine) close() {
	if m.eng.par != nil {
		m.eng.par.stop()
	}
	cpusHeld.Add(-int64(m.eng.held))
	m.eng.held = 0
	m.uncore.Release()
}

// run executes the remaining windows (all of them on a fresh machine; the
// tail of the interrupted window after a restore) and audits the final state.
func (m *machine) run(ctx context.Context) error {
	if m.phase == 0 {
		if err := m.runPhase(ctx, m.rc.WarmCycles); err != nil {
			return err
		}
		for _, c := range m.cores {
			c.ResetMetrics()
		}
		m.uncore.LLC.ResetStats()
		m.measuredFrom = m.uncore.LLC.Occupancy()
		m.uncore.Mesh.ResetStats()
		m.uncore.DRAM.ResetStats()
		if m.obs != nil {
			m.obs.resetWindow(m)
		}
		m.phase = 1
		m.done = 0
	}
	if err := m.runPhase(ctx, m.rc.MeasureCycles); err != nil {
		return err
	}
	// Drain audit: every run ends with an invariant sweep, so structural
	// corruption surfaces even when checkpointing is off.
	return m.auditNow()
}

// runPhase advances the machine until the current window holds total
// cycles, one segment per checkEvery poll interval, each on the loop the
// configuration (and, for the shard count, the process's idle CPUs) selects
// at its start. Both loops land exactly on the same boundaries — window end,
// checkEvery poll (context, watchdog, checkpoint cadence), observability
// sampling — and produce bit-identical machine state at each of them, so the
// choice of loop is invisible to everything downstream.
func (m *machine) runPhase(ctx context.Context, total uint64) error {
	for m.done < total {
		end := min(total, m.done+checkEvery-m.watch.cycle%checkEvery)
		m.useShards(m.claimShards())
		if err := m.runSegment(end); err != nil {
			return err
		}
		if m.watch.cycle%checkEvery == 0 {
			m.syncCores()
			if err := m.pollBoundary(ctx); err != nil {
				return err
			}
		}
	}
	m.syncCores()
	// Window boundaries rarely land on the checkEvery cadence, so report the
	// final cycle explicitly: a progress observer sees the window complete
	// instead of stalling checkEvery-1 cycles short. (A cadence coincidence
	// means one repeated report; OnAdvance is idempotent by contract.)
	if f := m.rc.OnAdvance; f != nil {
		f(m.watch.cycle)
	}
	return nil
}

// stepLimit bounds the next step of any engine: up to the segment's end and
// the next sampling boundary, the points where the machine is observed.
func (m *machine) stepLimit(end uint64) uint64 {
	n := end - m.done
	if m.obs != nil {
		n = min(n, obs.SampleEvery-m.watch.cycle%obs.SampleEvery)
	}
	return n
}

// pollBoundary runs the checkEvery-cadence work shared by every engine:
// progress callback, context poll, watchdog, and checkpoint cadence. Cores
// must be synced to the global clock before calling it.
func (m *machine) pollBoundary(ctx context.Context) error {
	if f := m.rc.OnAdvance; f != nil {
		f(m.watch.cycle)
	}
	if ctx != nil {
		select {
		case <-ctx.Done():
			return fmt.Errorf("run aborted at cycle %d: %w", m.watch.cycle, ctx.Err())
		default:
		}
	}
	if err := m.watch.check(); err != nil {
		return m.dumpLivelock(err)
	}
	if m.rc.CheckpointEvery > 0 && m.watch.cycle-m.lastCkpt >= m.rc.CheckpointEvery {
		if err := m.checkpoint(); err != nil {
			return err
		}
		m.lastCkpt = m.watch.cycle
	}
	return nil
}

// runSegment advances the machine to end on the segment's loop. A core that
// reports a proven pure-stall window (core.IdleWake) sleeps in the sleep
// table until the cycle of its next required full Tick, and an all-asleep
// machine jumps straight to the earliest wake. Otherwise the serial loop runs
// one cycle (step) and the sharded loop one lookahead epoch
// (parEngine.epoch). Sleeping cores lag the global clock: their pure-stall
// charge is applied in one FastForward at wake or at the next sync point
// (poll boundary, window end), which is bit-exact because the charge is
// additive and the coalesced stall span is cause-keyed, not call-keyed.
func (m *machine) runSegment(end uint64) error {
	e := &m.eng
	for m.done < end {
		n := m.stepLimit(end)
		switch s := e.sleepLen(m.watch.cycle); {
		case s > 0:
			// Every core sleeps past this span: only the global clock moves.
			n = min(n, s)
		case e.shards > 1:
			n = min(n, e.par.lookahead)
			if err := e.par.epoch(m.watch.cycle, m.watch.cycle+n); err != nil {
				return err
			}
		default:
			n = 1
			m.step()
		}
		m.watch.cycle += n
		m.done += n
		if m.obs != nil && m.watch.cycle%obs.SampleEvery == 0 {
			// A pure-stall window retires in place, so a lagged sleeping core's
			// ROB is behind the clock: bring every core to it, and the sample
			// reads exactly what a cycle-by-cycle loop would have seen.
			m.settle()
			m.syncCores()
			m.obs.sample(m)
		}
	}
	m.settle()
	return nil
}

// step runs one cycle of the serial loop. Each core in tile order (the
// serial contention order) is woken if its wake is due, its lagged
// pure-stall span settled in one FastForward, and if awake is ticked; a core
// whose next required full Tick then lies ahead goes to sleep, except under
// SchedTick, where every core ticks every cycle.
func (m *machine) step() {
	e := &m.eng
	now := m.watch.cycle
	for i, c := range m.cores {
		if e.asleep[i] {
			if e.wake[i] > now {
				continue
			}
			if lag := now - c.Cycle(); lag > 0 {
				c.FastForward(lag)
			}
			e.asleep[i] = false
		}
		c.Tick()
		if w := c.IdleWake(); w > c.Cycle() && e.mode != SchedTick {
			e.asleep[i], e.wake[i] = true, w
		}
	}
}

// sleepLen returns how far the machine may jump because every core sleeps:
// the distance to the earliest wake, zero when a core is awake or due now.
func (e *engineState) sleepLen(cur uint64) uint64 {
	wake := ^uint64(0)
	for i, asleep := range e.asleep {
		if !asleep {
			return 0
		}
		wake = min(wake, e.wake[i])
	}
	if wake <= cur {
		return 0
	}
	return wake - cur
}

// settle patches the sharded loop's replayed replies into every core, for
// the boundary work and the samples that observe the machine.
func (m *machine) settle() {
	if m.eng.shards > 1 {
		for _, c := range m.cores {
			c.Settle()
		}
	}
}

// syncCores settles every sleeping core's lagged pure-stall span up to the
// global clock. Sync points (poll boundaries, window ends) are exactly where
// the machine's state is observed — watchdog snapshots, checkpoints, metric
// resets, results — so after a sync the machine is bit-identical to one
// that ticked every core every cycle.
func (m *machine) syncCores() {
	target := m.watch.cycle
	for _, c := range m.cores {
		if lag := target - c.Cycle(); lag > 0 {
			c.FastForward(lag)
		}
	}
}

// dumpLivelock writes a post-mortem snapshot next to the configured
// checkpoint file so a stuck run can be audited and inspected offline.
func (m *machine) dumpLivelock(lerr error) error {
	if m.rc.CheckpointPath == "" {
		return lerr
	}
	if werr := checkpoint.WriteFile(m.rc.CheckpointPath+".livelock", m.encode()); werr != nil {
		return errors.Join(lerr, fmt.Errorf("sim: livelock snapshot dump failed: %w", werr))
	}
	return lerr
}

// checkpoint audits the machine and atomically persists a snapshot. An audit
// violation aborts the run instead of persisting a structurally corrupt
// snapshot.
func (m *machine) checkpoint() error {
	if err := m.auditNow(); err != nil {
		return err
	}
	if m.obs != nil {
		m.obs.noteCheckpoint(m.watch.cycle)
	}
	return checkpoint.WriteFile(m.rc.CheckpointPath, m.encode())
}

func (m *machine) result() Result {
	res := Result{
		Workload:     m.rc.Workload.Name,
		Design:       m.designs[0].Name(),
		Engine:       m.eng.mode.String(),
		Shards:       max(1, m.eng.peak),
		PerCore:      make([]core.Metrics, m.rc.Cores),
		LLCStats:     m.uncore.LLC.Stats(),
		LLCOccupancy: [2]int{m.measuredFrom, m.uncore.LLC.Occupancy()},
		NoCFlits:     m.uncore.Mesh.Flits(),
		NoCQueued:    m.uncore.Mesh.QueuedCycles(),
		DRAMQueued:   m.uncore.DRAM.QueuedCycles(),
		StorageBits:  m.designs[0].StorageBits(),
	}
	for i, c := range m.cores {
		res.PerCore[i] = c.M
		res.M.Add(&c.M)
		res.TickedCycles += c.TickedCycles()
		res.WindowRetired += c.WindowRetired()
	}
	if m.obs != nil {
		res.Obs = m.obs.fold(m)
		res.Obs.Shards = res.Shards
	}
	for _, d := range m.designs {
		if p, ok := d.(prefetch.Prober); ok {
			if res.Probes == nil {
				res.Probes = new(prefetch.Probes)
			}
			p.AddProbes(res.Probes)
		}
	}
	return res
}

// watchdog tracks aggregate retirement across windows; it persists across
// the warm-up/measure boundary so a design that stalls right at the window
// edge is still caught.
type watchdog struct {
	threshold uint64 // 0 = disabled
	cores     []*core.Core
	uncore    *core.Uncore
	cycle     uint64 // global cycle across both windows
	lastSum   uint64
	lastAt    uint64
}

func newWatchdog(rc RunConfig, cores []*core.Core, uncore *core.Uncore) *watchdog {
	w := &watchdog{cores: cores, uncore: uncore}
	if rc.WatchdogCycles > 0 {
		w.threshold = uint64(rc.WatchdogCycles)
	}
	return w
}

// check is called every checkEvery cycles; it returns a *LivelockError when
// retirement has been flat for at least the threshold.
func (w *watchdog) check() error {
	if w.threshold == 0 {
		return nil
	}
	var sum uint64
	for _, c := range w.cores {
		sum += c.Progress()
	}
	if sum != w.lastSum {
		w.lastSum, w.lastAt = sum, w.cycle
		return nil
	}
	if stuck := w.cycle - w.lastAt; stuck >= w.threshold {
		return &LivelockError{NoProgressCycles: stuck, Snapshot: w.snapshot()}
	}
	return nil
}

func (w *watchdog) snapshot() Snapshot {
	s := Snapshot{
		Cycle:      w.cycle,
		Cores:      make([]core.DiagSnapshot, len(w.cores)),
		NoCPackets: w.uncore.Mesh.Packets(),
		NoCQueued:  w.uncore.Mesh.QueuedCycles(),
		DRAMAccess: w.uncore.DRAM.Accesses(),
		DRAMQueued: w.uncore.DRAM.QueuedCycles(),
	}
	for i, c := range w.cores {
		s.Cores[i] = c.Diag()
	}
	return s
}
