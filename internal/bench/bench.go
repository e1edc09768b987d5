// Package bench implements the paper's evaluation: one function per table
// and figure, each regenerating the corresponding rows/series from
// simulation. The benchmark harness (bench_test.go) and the dncbench
// command both drive this package.
//
// Runs are cached inside a Harness keyed by (workload, design, options), so
// experiments that share configurations (the baseline above all) pay for
// them once.
package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"dnc/internal/core"
	"dnc/internal/isa"
	"dnc/internal/llc"
	"dnc/internal/obs"
	"dnc/internal/prefetch"
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
	cache map[string]sim.Result
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
	h := &Harness{cfg: cfg, ctx: context.Background(), cache: make(map[string]sim.Result)}
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

// runOpts adjusts a run beyond the design choice.
type runOpts struct {
	pfbEntries int
	perfectL1i bool
	perfectBTB bool
	mode       isa.Mode
	llcCfg     *llc.Config
}

// key renders the options for the run cache and cell IDs, the LLC config by
// value: %+v would print its address, unequal for equal configs.
func (o runOpts) key() string {
	cfg := o.llcCfg
	o.llcCfg = nil
	k := fmt.Sprintf("%+v", o)
	if cfg != nil {
		k += fmt.Sprintf("|llc%+v", *cfg)
	}
	return k
}

// run executes (or returns the cached) simulation of one workload/design.
// The samples of one configuration fan out across the runner pool; any
// failure is recorded on the harness and a zero Result returned, so the
// experiment's remaining rows still render.
func (h *Harness) run(workload, key string, nd func() prefetch.Design, o runOpts) sim.Result {
	ck := fmt.Sprintf("%s|%s|%s", workload, key, o.key())
	h.mu.Lock()
	if r, ok := h.cache[ck]; ok {
		h.mu.Unlock()
		return r
	}
	h.mu.Unlock()

	rep, err := runner.Sweep(h.ctx, h.cells(ck, workload, key, nd, o), runner.Options{
		Jobs:     h.cfg.Jobs,
		Timeout:  h.cfg.Timeout,
		Progress: h.cfg.Progress,
		OnResult: h.onResult(),
	})
	if err == nil {
		err = rep.FirstErr()
	}
	if err != nil {
		h.fail(fmt.Errorf("bench %s: %w", ck, err))
		return sim.Result{}
	}
	r := poolSamples(rep.Cells)
	h.mu.Lock()
	h.cache[ck] = r
	h.mu.Unlock()
	return r
}

// unavailable is what a table cell reads when its run carries no design
// probes (Result.Probes): the configuration failed, or its result was
// restored from a journal, which keeps every metric but no probes. The
// experiments that read probes (Fig01, Fig12) print it rather than a ratio
// of zero counts.
const unavailable = "n/a"

// cells expands one configuration into its sample cells: sample s runs with
// seed Seed + s*7919, and the cell IDs are stable across processes so a
// journaled sweep can resume. With a store open, each cell's identity tags
// are recorded so storeResult can label it when it finishes.
func (h *Harness) cells(ck, workload, key string, nd func() prefetch.Design, o runOpts) []runner.Cell {
	samples := h.cfg.Samples
	if samples < 1 {
		samples = 1
	}
	cells := make([]runner.Cell, samples)
	for s := 0; s < samples; s++ {
		rc := h.runConfig(workload, nd, o)
		if s > 0 {
			rc.Seed = h.cfg.Seed + int64(s)*7919
		}
		cells[s] = runner.Cell{
			ID: fmt.Sprintf("%s|c%d|w%d|m%d|s%d|x%d", ck,
				h.cfg.Cores, h.cfg.WarmCycles, h.cfg.MeasureCycles, h.cfg.Seed, s),
			Config: rc,
		}
		if h.store != nil {
			h.mu.Lock()
			h.storeTags[cells[s].ID] = resultstore.Cell{
				Workload: workload,
				Design:   storeDesign(key, o),
				Mode:     modeName(o.mode),
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

// storeDesign is the design tag a cell carries in the column store: the
// short design key alone for a plain run, or the key plus the option tweaks
// for variants (perfect L1i, LLC overrides, ...). The llc config is
// dereferenced so the tag is a stable value, not a pointer address.
func storeDesign(key string, o runOpts) string {
	if o == (runOpts{mode: o.mode}) { // mode rides in its own tag
		return key
	}
	v := struct {
		pfbEntries int
		perfectL1i bool
		perfectBTB bool
		llcCfg     llc.Config
	}{o.pfbEntries, o.perfectL1i, o.perfectBTB, llc.Config{}}
	if o.llcCfg != nil {
		v.llcCfg = *o.llcCfg
	}
	return fmt.Sprintf("%s#%+v", key, v)
}

// modeName renders the isa dispatch mode as the store's tag vocabulary.
func modeName(m isa.Mode) string {
	if m == isa.Variable {
		return "variable"
	}
	return "fixed"
}

func (h *Harness) runConfig(workload string, nd func() prefetch.Design, o runOpts) sim.RunConfig {
	cc := core.DefaultConfig()
	cc.PrefetchBufferEntries = o.pfbEntries
	cc.PerfectL1i = o.perfectL1i
	cc.PerfectBTB = o.perfectBTB
	rc := sim.RunConfig{
		Workload:      workloads.Params(workload, o.mode),
		NewDesign:     nd,
		Cores:         h.cfg.Cores,
		WarmCycles:    h.cfg.WarmCycles,
		MeasureCycles: h.cfg.MeasureCycles,
		Seed:          h.cfg.Seed,
		Core:          cc,
		IntraJobs:     h.cfg.IntraJobs,
	}
	if o.llcCfg != nil {
		rc.LLC = *o.llcCfg
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
// snd-tag* variants, which therefore always run live through h.run).
func (h *Harness) Prewarm(ctx context.Context, journalPath string) error {
	if ctx == nil {
		ctx = h.ctx
	}
	specs := []struct {
		key string
		nd  func() prefetch.Design
	}{
		{"baseline", design("baseline")},
		{"full", design("SN4L+Dis+BTB")},
		{"confluence", design("confluence")},
	}
	var (
		cells  []runner.Cell
		groups []string // cache key of each cell, parallel to cells
	)
	for _, w := range h.cfg.Workloads {
		for _, sp := range specs {
			ck := fmt.Sprintf("%s|%s|%s", w, sp.key, runOpts{}.key())
			for _, c := range h.cells(ck, w, sp.key, sp.nd, runOpts{}) {
				cells = append(cells, c)
				groups = append(groups, ck)
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
	byKey := make(map[string][]runner.CellResult)
	var order []string
	for i, cr := range rep.Cells {
		if _, seen := byKey[groups[i]]; !seen {
			order = append(order, groups[i])
		}
		byKey[groups[i]] = append(byKey[groups[i]], cr)
	}
	h.mu.Lock()
	for _, ck := range order {
		g := byKey[ck]
		complete := true
		for _, cr := range g {
			if cr.Status == runner.StatusFailed {
				complete = false
				break
			}
		}
		if complete {
			h.cache[ck] = poolSamples(g)
		}
	}
	h.mu.Unlock()
	if err := rep.FirstErr(); err != nil {
		h.fail(fmt.Errorf("bench prewarm: %w", err))
		return err
	}
	return nil
}

// design returns a catalog design's constructor by name (prefetch.Catalog).
func design(name string) func() prefetch.Design {
	e, ok := prefetch.FindDesign(name)
	if !ok {
		panic("bench: no catalog design " + name)
	}
	return e.New
}

// Baseline returns the cached no-prefetch run of a workload.
func (h *Harness) Baseline(workload string) sim.Result {
	return h.run(workload, "baseline", design("baseline"), runOpts{})
}

// Full returns the cached SN4L+Dis+BTB run of a workload.
func (h *Harness) Full(workload string) sim.Result {
	return h.run(workload, "full", design("SN4L+Dis+BTB"), runOpts{})
}

// Shotgun returns the cached Shotgun run of a workload (with its 64-entry
// L1i prefetch buffer).
func (h *Harness) Shotgun(workload string) sim.Result {
	return h.run(workload, "shotgun", design("shotgun"), runOpts{pfbEntries: 64})
}

// Confluence returns the cached Confluence run of a workload.
func (h *Harness) Confluence(workload string) sim.Result {
	return h.run(workload, "confluence", design("confluence"), runOpts{})
}

// mean averages a slice.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}
