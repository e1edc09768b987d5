package runner

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"dnc/internal/telemetry"
)

// Progress tracks a sweep's live state for periodic console summaries and
// the /metrics series Register exports. A nil *Progress is valid everywhere
// and disables tracking. One Progress may observe several consecutive
// sweeps (e.g. a prewarm pass followed by the main one); totals accumulate.
type Progress struct {
	mu      sync.Mutex
	start   time.Time
	total   int
	done    int
	ok      int
	failed  int
	resumed int
	// running maps each in-flight cell to the last simulated cycle its
	// engine reported through RunConfig.OnAdvance; cycles is their sum,
	// kept as they move so a scrape reads it without walking the map.
	running map[string]uint64
	cycles  uint64
}

// NewProgress returns an empty tracker; the clock starts now.
func NewProgress() *Progress {
	return &Progress{start: time.Now(), running: make(map[string]uint64)}
}

// addTotal grows the expected cell count (called once per Sweep).
func (p *Progress) addTotal(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.total += n
	p.mu.Unlock()
}

// begin marks a cell as executing.
func (p *Progress) begin(id string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.cycles -= p.running[id]
	p.running[id] = 0
	p.mu.Unlock()
}

// advance records how far a running cell's simulation has progressed. The
// engine reports through RunConfig.OnAdvance at its poll cadence (every
// ~1K simulated cycles), so the per-call cost of the mutex is immaterial.
// Unknown IDs (a poll racing the cell's own completion) are ignored.
func (p *Progress) advance(id string, cycle uint64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if prev, ok := p.running[id]; ok {
		p.cycles += cycle - prev
		p.running[id] = cycle
	}
	p.mu.Unlock()
}

// observe folds a finished cell into the tally.
func (p *Progress) observe(res CellResult) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.cycles -= p.running[res.ID]
	delete(p.running, res.ID)
	p.done++
	switch res.Status {
	case StatusOK:
		p.ok++
	case StatusResumed:
		p.resumed++
	default:
		p.failed++
	}
	p.mu.Unlock()
}

// Register exports the tracker on reg as scrape-time series, each read
// under the lock (dncbench -http serves them). A nil tracker or registry
// registers nothing.
func (p *Progress) Register(reg *telemetry.Registry) {
	if p == nil {
		return
	}
	count := func(n *int) func() uint64 {
		return func() uint64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return uint64(*n)
		}
	}
	reg.CounterFunc("dnc_cells_simulated_total",
		"Cells this process's sweeps ran to completion.",
		count(&p.ok))
	reg.GaugeFunc("dnc_inflight_cells",
		"Cells a sweep has begun and not finished.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(len(p.running))
		})
	reg.GaugeFunc("dnc_sweep_inflight_cycles",
		"Sum over in-flight cells of the last simulated cycle each engine reported; it grows while long cells run.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(p.cycles)
		})
	reg.CounterFunc("dnc_sweep_cells_expected_total",
		"Cells handed to sweeps (every sweep adds its whole cell list).", count(&p.total))
	reg.CounterFunc("dnc_sweep_cells_done_total",
		"Cells whose sweep outcome is final: completed, failed or resumed.", count(&p.done))
	reg.CounterFunc("dnc_sweep_cells_failed_total",
		"Cells whose sweep run failed (drains and cancellations included).", count(&p.failed))
	reg.CounterFunc("dnc_sweep_cells_resumed_total",
		"Cells a sweep restored from its journal instead of running.", count(&p.resumed))
}

// ProgressSnapshot is a point-in-time view of a sweep.
type ProgressSnapshot struct {
	Total, Done, OK, Failed, Resumed int
	Elapsed                          time.Duration
	// CellsPerSec is the completion rate so far; ETA extrapolates it over
	// the remaining cells (zero when the rate is unknown).
	CellsPerSec float64
	ETA         time.Duration
}

// Snapshot captures the current state. Safe on a nil tracker (zero value).
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	p.mu.Lock()
	s := ProgressSnapshot{
		Total: p.total, Done: p.done, OK: p.ok, Failed: p.failed,
		Resumed: p.resumed,
		Elapsed: time.Since(p.start),
	}
	p.mu.Unlock()
	if sec := s.Elapsed.Seconds(); sec > 0 && s.Done > 0 {
		s.CellsPerSec = float64(s.Done) / sec
		if left := s.Total - s.Done; left > 0 {
			s.ETA = time.Duration(float64(left) / s.CellsPerSec * float64(time.Second))
		}
	}
	return s
}

// String renders the one-line periodic summary dncbench prints to stderr.
func (s ProgressSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d cells", s.Done, s.Total)
	if s.Failed > 0 {
		fmt.Fprintf(&b, ", %d failed", s.Failed)
	}
	if s.Resumed > 0 {
		fmt.Fprintf(&b, ", %d resumed", s.Resumed)
	}
	if s.CellsPerSec > 0 {
		fmt.Fprintf(&b, ", %.1f cells/s", s.CellsPerSec)
	}
	if s.ETA > 0 {
		fmt.Fprintf(&b, ", eta %s", s.ETA.Round(time.Second))
	}
	return b.String()
}
