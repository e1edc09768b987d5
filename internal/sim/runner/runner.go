// Package runner is the fault-tolerant parallel sweep engine. It fans
// simulation cells (workload × design × seed points) across a bounded pool
// of workers, isolates each cell's failures through sim.RunChecked (panics,
// livelocks, timeouts become recorded data, not process aborts), retries
// transiently failed cells with exponential backoff, and journals every
// finished cell to a JSONL file so an interrupted sweep resumes where it
// stopped instead of starting over.
package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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
	// StatusFailed is a run whose final attempt errored (panic, livelock,
	// timeout, validation, cancellation).
	StatusFailed Status = "failed"
	// StatusResumed is a cell skipped because a journal from a previous
	// sweep already records it as completed; its Result is restored from
	// the journal (without the live Design instances).
	StatusResumed Status = "resumed"
)

// CellResult is the outcome of one cell.
type CellResult struct {
	ID       string
	Status   Status
	Result   sim.Result // valid when Status is ok or resumed
	Err      error      // non-nil when Status is failed
	Attempts int
	Elapsed  time.Duration
}

// Options tunes a sweep.
type Options struct {
	// Jobs bounds concurrently executing cells (0 = GOMAXPROCS).
	Jobs int
	// Timeout is the per-attempt wall-clock budget (0 = none).
	Timeout time.Duration
	// Retries is how many times a transiently failed cell is re-attempted
	// after its first failure.
	Retries int
	// Backoff is the base retry delay (0 = DefaultBackoff). The actual
	// delay grows exponentially per attempt up to BackoffMax and carries
	// equal jitter — half the exponential value fixed, half uniformly
	// random — so cells that failed together (an oversubscribed machine
	// timing out a whole worker pool at once) retry spread out instead of
	// stampeding back simultaneously.
	Backoff time.Duration
	// BackoffMax caps the exponential growth of the retry delay
	// (0 = DefaultBackoffMax).
	BackoffMax time.Duration
	// JournalPath appends every finished cell to this JSONL file and, when
	// the file already holds completed cells from an earlier sweep, skips
	// re-executing them ("" = no journal).
	JournalPath string
	// SyncEvery batches journal fsyncs: the file is synced to stable
	// storage after every SyncEvery appended cells (0 or 1 = after each)
	// and once more when the sweep finishes. Larger values trade crash
	// durability of the journal tail for fewer fsyncs on large sweeps.
	SyncEvery int
	// Transient reports whether an error is worth retrying. Defaults to
	// timeouts only: in a deterministic simulator a panic or livelock
	// reproduces on every attempt, but a timeout may just mean the machine
	// was oversubscribed.
	Transient func(error) bool
	// Run, when set, replaces the default per-attempt executor
	// (sim.RunChecked). The cfg argument is the cell's config with the
	// runner's progress hook applied. It exists so tests can substitute
	// deterministic fakes or chaos runs through sim.RunInjected while
	// keeping the retry, backoff and journal machinery identical to
	// production.
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
	// Failed cells whose every attempt errored.
	OK, Resumed, Failed int
}

// ByID returns the result for a cell ID.
func (r *Report) ByID(id string) (CellResult, bool) {
	for _, c := range r.Cells {
		if c.ID == id {
			return c, true
		}
	}
	return CellResult{}, false
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

func defaultTransient(err error) bool {
	return errors.Is(err, context.DeadlineExceeded)
}

// Default retry-backoff parameters (see Options.Backoff).
const (
	DefaultBackoff    = 100 * time.Millisecond
	DefaultBackoffMax = 30 * time.Second
)

// Test seams for the backoff path: production uses a real timer and the
// global math/rand source; the schedule-pinning test substitutes a fake
// clock and a deterministic jitter sequence.
var (
	backoffRand = rand.Float64
	sleepRetry  = func(ctx context.Context, d time.Duration) {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	}
)

// backoffDelay returns the delay before retry number attempt (1-based): the
// base doubles per attempt up to max, and the result carries equal jitter —
// delay/2 guaranteed plus up to delay/2 uniformly random — bounding both
// sides (never less than half the exponential value, never more than it).
func backoffDelay(base, max time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = DefaultBackoff
	}
	if max <= 0 {
		max = DefaultBackoffMax
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d <<= 1
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(backoffRand()*float64(d-half))
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
		if jr, err = openJournal(o.JournalPath, o.SyncEvery); err != nil {
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

// runCell executes one cell with per-attempt timeouts and transient-error
// retries. Every attempt starts from cycle 0.
func runCell(ctx context.Context, c Cell, o Options) CellResult {
	transient := o.Transient
	if transient == nil {
		transient = defaultTransient
	}
	run := o.Run
	if run == nil {
		run = func(ctx context.Context, _ Cell, cfg sim.RunConfig) (sim.Result, error) {
			return sim.RunChecked(ctx, cfg)
		}
	}
	start := time.Now()
	out := CellResult{ID: c.ID, Status: StatusFailed}
	for attempt := 1; ; attempt++ {
		out.Attempts = attempt
		if err := ctx.Err(); err != nil {
			out.Err = err
			break
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
		rctx := ctx
		var cancel context.CancelFunc
		if o.Timeout > 0 {
			rctx, cancel = context.WithTimeout(ctx, o.Timeout)
		}
		r, err := run(rctx, c, cfg)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			out.Status = StatusOK
			out.Result = r
			break
		}
		out.Err = err
		if attempt > o.Retries || !transient(err) {
			break
		}
		sleepRetry(ctx, backoffDelay(o.Backoff, o.BackoffMax, attempt))
	}
	out.Elapsed = time.Since(start)
	return out
}
