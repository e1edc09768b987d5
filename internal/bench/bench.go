// Package bench implements the paper's evaluation: one row of a table per
// table and figure (figures.go), each regenerating the corresponding
// rows/series from simulation. The benchmark harness (bench_test.go) and the
// dncbench command both drive this package.
//
// Each simulated configuration is one spec value (spec.go), and runs are
// cached inside a Harness keyed by (workload, spec), so experiments that
// share configurations (the baseline above all) pay for them once.
package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"dnc/internal/core"
	"dnc/internal/llc"
	"dnc/internal/obs"
	"dnc/internal/resultstore"
	"dnc/internal/sim"
	"dnc/internal/sim/runner"
	"dnc/internal/workloads"
)

// Config scales the experiments.
type Config struct {
	Cores         int
	WarmCycles    uint64
	MeasureCycles uint64
	// Workloads restricts the workload set (nil = all seven).
	Workloads []string
	Seed      int64
	// Samples pools this many independently seeded runs per configuration
	// (the SimFlex-style sampling of the paper's methodology). Default 1.
	Samples int
	// Jobs bounds concurrently executing simulations within one pooled
	// configuration or prewarm sweep (0 = GOMAXPROCS).
	Jobs int
	// Timeout aborts any single simulation exceeding it (0 = none). The
	// failure is recorded on the harness (Err) and the affected rows read
	// zero; the remaining experiments continue.
	Timeout time.Duration
	// ProgressOut, when non-nil, receives a throttled one-line sweep summary
	// (cells done/failed/resumed, rate, ETA) roughly every two seconds —
	// dncbench points it at stderr so long runs are visibly alive.
	ProgressOut io.Writer
	// Progress, when set, tracks every sweep the harness runs (the source
	// of dncbench -http's /metrics). New allocates one when ProgressOut is
	// set.
	Progress *runner.Progress
	// StorePath, when non-empty, appends every completed cell to this
	// columnar result store (internal/resultstore) as it finishes, and
	// turns on per-run observation so the occupancy histograms ride along.
	// This is dncbench's -store-out flag; seal the file
	// with Harness.CloseStore when the experiments are done.
	StorePath string
	// IntraJobs shards the cores of each single simulation across this many
	// goroutines (dncbench's -intra-jobs flag; see sim.RunConfig.IntraJobs).
	// 0, the default, uses the CPUs the sweep's other cells leave idle.
	IntraJobs int
}

// Quick returns a reduced configuration for fast iteration and the default
// benchmark run: the paper's 16-core CMP (shared-fabric contention needs
// all tiles) with shortened warm-up and measurement windows.
func Quick() Config {
	return Config{Cores: 16, WarmCycles: 100_000, MeasureCycles: 80_000, Seed: 1}
}

// Paper returns the paper-scale configuration: 16 cores, 200K warm-up and
// 200K measurement cycles.
func Paper() Config {
	return Config{Cores: 16, WarmCycles: 200_000, MeasureCycles: 200_000, Seed: 1}
}

// Harness caches simulation runs across experiments. Runs execute through
// the fault-tolerant runner.Sweep pool: a panicking or livelocked
// configuration is recorded as a failure (Err) instead of killing the whole
// benchmark, and its derived rows read zero.
type Harness struct {
	cfg   Config
	ctx   context.Context
	mu    sync.Mutex
	cache map[runKey]sim.Result
	errs  []error
	// lastPrint throttles the ProgressOut summary line (guarded by mu).
	lastPrint time.Time
	// store receives every completed cell when Config.StorePath is set;
	// storeTags maps runner cell IDs to their identity tags (guarded by mu,
	// as are store appends — the Writer is not concurrency-safe).
	store     *resultstore.Writer
	storeTags map[string]resultstore.Cell
}

// New returns a harness for the configuration.
func New(cfg Config) *Harness {
	if cfg.Cores == 0 {
		c := Quick()
		c.ProgressOut, c.Progress, c.StorePath = cfg.ProgressOut, cfg.Progress, cfg.StorePath
		cfg = c
	}
	if len(cfg.Workloads) == 0 {
		cfg.Workloads = workloads.Names
	}
	if cfg.ProgressOut != nil && cfg.Progress == nil {
		cfg.Progress = runner.NewProgress()
	}
	h := &Harness{cfg: cfg, ctx: context.Background(), cache: make(map[runKey]sim.Result)}
	if cfg.StorePath != "" {
		w, err := resultstore.OpenWriter(cfg.StorePath)
		if err != nil {
			h.fail(fmt.Errorf("bench: opening result store: %w", err))
		} else {
			h.store = w
			h.storeTags = make(map[string]resultstore.Cell)
		}
	}
	return h
}

// progressInterval is how often the ProgressOut summary line refreshes.
const progressInterval = 2 * time.Second

// onResult returns the sweep observer feeding ProgressOut and the column
// store, or nil when both are off. Sweep serializes OnResult calls, but
// several harness sweeps may run concurrently, so both sinks take the
// mutex.
func (h *Harness) onResult() func(runner.CellResult) {
	if h.cfg.ProgressOut == nil && h.store == nil {
		return nil
	}
	return func(cr runner.CellResult) {
		h.storeResult(cr)
		if h.cfg.ProgressOut == nil {
			return
		}
		h.mu.Lock()
		due := time.Since(h.lastPrint) >= progressInterval
		if due {
			h.lastPrint = time.Now()
		}
		h.mu.Unlock()
		if due {
			fmt.Fprintf(h.cfg.ProgressOut, "bench: %s\n", h.cfg.Progress.Snapshot())
		}
	}
}

// Finish prints the final progress summary when ProgressOut is set and a
// cell was observed. onResult refreshes the line at most once per
// progressInterval, so without this a short or fully journal-resumed sweep
// would end on a stale count.
func (h *Harness) Finish() {
	if h.cfg.ProgressOut == nil {
		return
	}
	if s := h.cfg.Progress.Snapshot(); s.Done > 0 {
		fmt.Fprintf(h.cfg.ProgressOut, "bench: %s\n", s)
	}
}

// storeResult appends one finished cell (scalars and histograms) to the
// column store. Journal-resumed cells pass through too —
// their restored ResultJSON carries everything the store needs — and the
// writer's first-insert-wins key dedup drops re-observations.
func (h *Harness) storeResult(cr runner.CellResult) {
	if h.store == nil || (cr.Status != runner.StatusOK && cr.Status != runner.StatusResumed) {
		return
	}
	h.mu.Lock()
	c, ok := h.storeTags[cr.ID]
	h.mu.Unlock()
	if !ok {
		return
	}
	c.SetResult(runner.NewResultJSON(cr.Result))
	h.mu.Lock()
	_, err := h.store.Append(c)
	h.mu.Unlock()
	if err != nil {
		h.fail(fmt.Errorf("bench: store append %s: %w", cr.ID, err))
	}
}

// CloseStore seals and closes the column store, returning how many cells
// it holds. A no-op (0, nil) when Config.StorePath was empty.
func (h *Harness) CloseStore() (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.store == nil {
		return 0, nil
	}
	n := h.store.Len()
	err := h.store.Close()
	h.store = nil
	return n, err
}

// SetContext installs a context that cancels the harness's in-flight
// simulations (e.g. on SIGINT). Call before running experiments.
func (h *Harness) SetContext(ctx context.Context) {
	if ctx != nil {
		h.ctx = ctx
	}
}

// Config returns the harness configuration.
func (h *Harness) Config() Config { return h.cfg }

// Workloads returns the active workload names.
func (h *Harness) Workloads() []string { return h.cfg.Workloads }

// Err returns the accumulated simulation failures, if any. Experiments keep
// going past a failed configuration; callers check Err once at the end for
// a non-zero exit.
func (h *Harness) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return errors.Join(h.errs...)
}

func (h *Harness) fail(err error) {
	h.mu.Lock()
	h.errs = append(h.errs, err)
	h.mu.Unlock()
}

// runKey is one configuration's run of one workload: the run cache's key.
// Its string, "workload|design tag|mode", opens every cell ID of the run.
type runKey struct {
	workload string
	s        spec
}

func (k runKey) String() string {
	return k.workload + "|" + k.s.name() + "|" + modeName(k.s.mode)
}

// run executes (or returns the cached) simulation of one workload under one
// configuration. The samples of one configuration fan out across the runner
// pool; any failure is recorded on the harness and a zero Result returned,
// so the experiment's remaining rows still render.
func (h *Harness) run(workload string, s spec) sim.Result {
	k := runKey{workload, s}
	h.mu.Lock()
	if r, ok := h.cache[k]; ok {
		h.mu.Unlock()
		return r
	}
	h.mu.Unlock()

	rep, err := runner.Sweep(h.ctx, h.cells(k), runner.Options{
		Jobs:     h.cfg.Jobs,
		Timeout:  h.cfg.Timeout,
		Progress: h.cfg.Progress,
		OnResult: h.onResult(),
	})
	if err == nil {
		err = rep.FirstErr()
	}
	if err != nil {
		h.fail(fmt.Errorf("bench %s: %w", k, err))
		return sim.Result{}
	}
	r := poolSamples(rep.Cells)
	h.mu.Lock()
	h.cache[k] = r
	h.mu.Unlock()
	return r
}

// cells expands one configuration into its sample cells: sample s runs with
// seed Seed + s*7919, and the cell IDs are stable across processes so a
// journaled sweep can resume. With a store open, each cell's identity tags
// are recorded so storeResult can label it when it finishes.
func (h *Harness) cells(k runKey) []runner.Cell {
	cells := make([]runner.Cell, max(h.cfg.Samples, 1))
	for s := range cells {
		rc := h.runConfig(k)
		if s > 0 {
			rc.Seed = h.cfg.Seed + int64(s)*7919
		}
		cells[s] = runner.Cell{
			ID: fmt.Sprintf("%s|c%d|w%d|m%d|s%d|x%d", k,
				h.cfg.Cores, h.cfg.WarmCycles, h.cfg.MeasureCycles, h.cfg.Seed, s),
			Config: rc,
		}
		if h.store != nil {
			h.mu.Lock()
			h.storeTags[cells[s].ID] = resultstore.Cell{
				Workload: k.workload,
				Design:   k.s.name(),
				Mode:     modeName(k.s.mode),
				Cores:    h.cfg.Cores,
				Warm:     h.cfg.WarmCycles,
				Measure:  h.cfg.MeasureCycles,
				Seed:     rc.Seed,
			}
			h.mu.Unlock()
		}
	}
	return cells
}

// runConfig is one sample cell's simulation of k: the spec's design, core
// and LLC knobs on the harness's core count, windows and seed.
func (h *Harness) runConfig(k runKey) sim.RunConfig {
	rc := sim.RunConfig{
		Workload:      workloads.Params(k.workload, k.s.mode),
		NewDesign:     k.s.build(),
		Cores:         h.cfg.Cores,
		WarmCycles:    h.cfg.WarmCycles,
		MeasureCycles: h.cfg.MeasureCycles,
		Seed:          h.cfg.Seed,
		Core:          core.Config{PerfectL1i: k.s.get(perfectL1i) == 1, PerfectBTB: k.s.get(perfectBTB) == 1},
		LLC:           llc.Config{BFsPerSet: k.s.get(bfsPerSet)},
		IntraJobs:     h.cfg.IntraJobs,
	}
	if k.s.get(dvLLC) == 0 {
		rc.LLC.DV = llc.DVOff
	}
	if h.store != nil {
		rc.Obs = &obs.Config{}
	}
	return rc
}

// poolSamples merges the independently seeded samples of one configuration,
// in sample order: counters add, so every derived ratio becomes the pooled
// estimate.
func poolSamples(cells []runner.CellResult) sim.Result {
	r := cells[0].Result
	for _, c := range cells[1:] {
		r.M.Add(&c.Result.M)
		r.PerCore = append(r.PerCore, c.Result.PerCore...)
	}
	return r
}

// Prewarm runs the cross-experiment design sweeps shared by most figures
// (baseline, full, confluence) for every active workload through one
// journaled runner sweep: an interrupted benchmark resumes the finished
// cells from the journal instead of recomputing them. Journal-restored
// results carry every metric but no design probes, which the experiments
// never read for these three designs (Fig01 and Fig12 probe Shotgun and the
// SN4L+Dis tag variants, which therefore always run live through h.run).
func (h *Harness) Prewarm(ctx context.Context, journalPath string) error {
	if ctx == nil {
		ctx = h.ctx
	}
	var (
		cells  []runner.Cell
		groups []runKey // configuration of each cell, parallel to cells
	)
	for _, w := range h.cfg.Workloads {
		for _, s := range []spec{baseline, full, confluence} {
			k := runKey{w, s}
			for _, c := range h.cells(k) {
				cells = append(cells, c)
				groups = append(groups, k)
			}
		}
	}
	rep, err := runner.Sweep(ctx, cells, runner.Options{
		Jobs:        h.cfg.Jobs,
		Timeout:     h.cfg.Timeout,
		JournalPath: journalPath,
		Progress:    h.cfg.Progress,
		OnResult:    h.onResult(),
	})
	if err != nil {
		h.fail(fmt.Errorf("bench prewarm: %w", err))
		return err
	}
	// Cache every configuration whose samples all completed; failed ones
	// are recorded and will re-run (and re-fail deterministically, fast)
	// if an experiment asks for them.
	byKey := make(map[runKey][]runner.CellResult)
	var order []runKey
	for i, cr := range rep.Cells {
		if _, seen := byKey[groups[i]]; !seen {
			order = append(order, groups[i])
		}
		byKey[groups[i]] = append(byKey[groups[i]], cr)
	}
	h.mu.Lock()
	for _, k := range order {
		g := byKey[k]
		complete := true
		for _, cr := range g {
			if cr.Status == runner.StatusFailed {
				complete = false
				break
			}
		}
		if complete {
			h.cache[k] = poolSamples(g)
		}
	}
	h.mu.Unlock()
	if err := rep.FirstErr(); err != nil {
		h.fail(fmt.Errorf("bench prewarm: %w", err))
		return err
	}
	return nil
}
