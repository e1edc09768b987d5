// Package runner is the fault-tolerant parallel sweep engine. It fans
// simulation cells (workload × design × seed points) across a bounded pool
// of workers, isolates each cell's failures through sim.RunChecked (panics,
// livelocks, timeouts become recorded data, not process aborts), runs each
// cell exactly once (a deterministic simulator's panic or livelock recurs on
// every attempt), and journals every finished cell to a JSONL file so an
// interrupted sweep resumes where it stopped instead of starting over.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dnc/internal/sim"
)

// Cell is one unit of a sweep: a run configuration under a stable ID. The
// ID is the cell's journal identity — it must be unique within a sweep and
// stable across processes for resumption to work.
type Cell struct {
	ID     string
	Config sim.RunConfig
}

// Status classifies a cell's outcome.
type Status string

const (
	// StatusOK is a successfully completed run.
	StatusOK Status = "ok"
	// StatusFailed is a run that errored (panic, livelock, timeout,
	// validation, cancellation).
	StatusFailed Status = "failed"
	// StatusResumed is a cell skipped because a journal from a previous
	// sweep already records it as completed; its Result is restored from
	// the journal (without the live Design instances).
	StatusResumed Status = "resumed"
)

// CellResult is the outcome of one cell.
type CellResult struct {
	ID      string
	Status  Status
	Result  sim.Result // valid when Status is ok or resumed
	Err     error      // non-nil when Status is failed
	Elapsed time.Duration
}

// Options tunes a sweep.
type Options struct {
	// Jobs bounds concurrently executing cells (0 = GOMAXPROCS).
	Jobs int
	// Timeout is the per-cell wall-clock budget (0 = none).
	Timeout time.Duration
	// JournalPath appends every finished cell to this JSONL file, synced
	// after each append, and, when the file already holds completed cells
	// from an earlier sweep, skips re-executing them ("" = no journal).
	JournalPath string
	// Run, when set, replaces the default executor (sim.RunChecked). The
	// cfg argument is the cell's config with the runner's progress hook
	// applied. It exists so tests can substitute deterministic fakes or
	// chaos runs through sim.RunInjected while keeping the pool and journal
	// machinery identical to production.
	Run func(ctx context.Context, c Cell, cfg sim.RunConfig) (sim.Result, error)
	// OnResult, when set, observes each finished cell (called serially).
	OnResult func(CellResult)
	// Progress, when set, is updated live as cells start and finish — the
	// data source for periodic console summaries and the /metrics series
	// (see NewProgress, Progress.Register).
	Progress *Progress
}

// Report summarizes a sweep. Cells holds one result per input cell, in
// input order.
type Report struct {
	Cells []CellResult
	// OK counts freshly completed cells, Resumed journal-restored ones,
	// Failed cells whose run errored.
	OK, Resumed, Failed int
}

// FirstErr returns the first failed cell's error, or nil.
func (r *Report) FirstErr() error {
	for _, c := range r.Cells {
		if c.Err != nil {
			return fmt.Errorf("cell %s: %w", c.ID, c.Err)
		}
	}
	return nil
}

// DefaultCheckpointEvery is a snapshot cadence in simulated cycles, 1<<16.
// Nothing in this package uses it: a sweep cell that dies restarts from
// cycle 0, and the journal recovers every finished cell. It stays exported
// because benchmark/layers.go compiles against it as the cadence of its
// checkpoint-on probe.
const DefaultCheckpointEvery = 1 << 16

// Sweep executes the cells through a bounded worker pool and returns a
// report with one entry per cell. A failing cell never aborts the sweep:
// its error is recorded and the remaining cells continue. Sweep itself
// returns an error only for setup problems (duplicate IDs, unreadable or
// unwritable journal) or when ctx is cancelled — and in the latter case the
// partial report is still returned, with unstarted cells marked failed with
// the context's error.
func Sweep(ctx context.Context, cells []Cell, o Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	seen := make(map[string]struct{}, len(cells))
	for _, c := range cells {
		if c.ID == "" {
			return nil, errors.New("runner: cell with empty ID")
		}
		if _, dup := seen[c.ID]; dup {
			return nil, fmt.Errorf("runner: duplicate cell ID %q", c.ID)
		}
		seen[c.ID] = struct{}{}
	}

	var jr *journal
	if o.JournalPath != "" {
		var err error
		if jr, err = openJournal(o.JournalPath); err != nil {
			return nil, err
		}
	}

	jobs := o.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}

	rep := &Report{Cells: make([]CellResult, len(cells))}
	o.Progress.addTotal(len(cells))
	var mu sync.Mutex // guards journal appends and OnResult
	finish := func(i int, res CellResult) {
		rep.Cells[i] = res
		mu.Lock()
		defer mu.Unlock()
		if jr != nil && res.Status != StatusResumed {
			jr.append(res)
		}
		o.Progress.observe(res)
		if o.OnResult != nil {
			o.OnResult(res)
		}
	}

	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				cell := cells[i]
				if done, ok := jr.completed(cell.ID); ok {
					finish(i, CellResult{
						ID:     cell.ID,
						Status: StatusResumed,
						Result: done,
					})
					continue
				}
				o.Progress.begin(cell.ID)
				finish(i, runCell(ctx, cell, o))
			}
		}()
	}
	for i := range cells {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	for _, c := range rep.Cells {
		switch c.Status {
		case StatusOK:
			rep.OK++
		case StatusResumed:
			rep.Resumed++
		default:
			rep.Failed++
		}
	}
	jr.close()
	return rep, errors.Join(ctx.Err(), jr.Err())
}

// runCell executes one cell once, under Options.Timeout.
func runCell(ctx context.Context, c Cell, o Options) CellResult {
	if err := ctx.Err(); err != nil {
		return CellResult{ID: c.ID, Status: StatusFailed, Err: err}
	}
	run := o.Run
	if run == nil {
		run = func(ctx context.Context, _ Cell, cfg sim.RunConfig) (sim.Result, error) {
			return sim.RunChecked(ctx, cfg)
		}
	}
	cfg := c.Config
	if p := o.Progress; p != nil {
		// Feed the engine's poll-boundary cycle reports into the live
		// progress tracker (dnc_sweep_inflight_cycles), chaining any
		// callback the cell's own config installed.
		id, prev := c.ID, cfg.OnAdvance
		cfg.OnAdvance = func(cycle uint64) {
			p.advance(id, cycle)
			if prev != nil {
				prev(cycle)
			}
		}
	}
	if o.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
		defer cancel()
	}
	start := time.Now()
	r, err := run(ctx, c, cfg)
	out := CellResult{ID: c.ID, Status: StatusFailed, Err: err, Elapsed: time.Since(start)}
	if err == nil {
		out.Status, out.Result = StatusOK, r
	}
	return out
}
