package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"dnc/internal/httpx"
)

// Progress tracks a sweep's live state for periodic console summaries and
// the debug HTTP endpoint. A nil *Progress is valid everywhere and disables
// tracking. One Progress may observe several consecutive sweeps (e.g. a
// prewarm pass followed by the main one); totals accumulate.
type Progress struct {
	mu      sync.Mutex
	start   time.Time
	total   int
	done    int
	ok      int
	failed  int
	resumed int
	// retried counts extra attempts beyond each cell's first.
	retried int
	running map[string]*cellRun

	journalAppends int
	journalPending int

	// observer, when set, sees every finished cell — the bridge that feeds
	// per-cell wall time and attempt counts into a metrics layer without
	// Progress itself depending on one.
	observer func(CellResult)
}

// cellRun is one in-flight cell: when it started, and the last simulated
// cycle its engine reported through RunConfig.OnAdvance.
type cellRun struct {
	at    time.Time
	cycle uint64
}

// NewProgress returns an empty tracker; the clock starts now.
func NewProgress() *Progress {
	return &Progress{start: time.Now(), running: make(map[string]*cellRun)}
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
	p.running[id] = &cellRun{at: time.Now()}
	p.mu.Unlock()
}

// Advance records how far a running cell's simulation has progressed. The
// engine reports through RunConfig.OnAdvance at its poll cadence (every
// ~1K simulated cycles), so the per-call cost of the mutex is immaterial.
// Unknown IDs (a poll racing the cell's own completion) are ignored. An
// executor that runs a cell elsewhere feeds it under the cell's ID.
func (p *Progress) Advance(id string, cycle uint64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if r, ok := p.running[id]; ok {
		r.cycle = cycle
	}
	p.mu.Unlock()
}

// SetObserver registers a callback invoked with every finished cell (after
// the tally update, outside the lock). Set it before the sweep starts; a
// nil Progress ignores it.
func (p *Progress) SetObserver(fn func(CellResult)) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.observer = fn
	p.mu.Unlock()
}

// observe folds a finished cell into the tally.
func (p *Progress) observe(res CellResult) {
	if p == nil {
		return
	}
	p.mu.Lock()
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
	if res.Attempts > 1 {
		p.retried += res.Attempts - 1
	}
	fn := p.observer
	p.mu.Unlock()
	if fn != nil {
		fn(res)
	}
}

// journalLag records the journal's append/fsync position.
func (p *Progress) journalLag(appends, pending int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.journalAppends = appends
	p.journalPending = pending
	p.mu.Unlock()
}

// ProgressSnapshot is a point-in-time view of a sweep.
type ProgressSnapshot struct {
	Total   int `json:"total"`
	Done    int `json:"done"`
	OK      int `json:"ok"`
	Failed  int `json:"failed"`
	Resumed int `json:"resumed"`
	Retried int `json:"retried"`
	// Running lists in-flight cell IDs, longest-running first.
	Running []string `json:"running,omitempty"`
	// RunningCycles maps each in-flight cell to the simulated cycle its
	// engine last reported (RunConfig.OnAdvance), so a long paper-scale cell
	// is visibly moving between /debug/sweep polls instead of looking hung.
	// Cells whose engine has not yet reached a poll boundary report 0.
	RunningCycles map[string]uint64 `json:"running_cycles,omitempty"`
	// JournalAppends and JournalPending give the journal's durability lag:
	// records written this sweep and how many of them await an fsync.
	JournalAppends int           `json:"journal_appends"`
	JournalPending int           `json:"journal_pending"`
	Elapsed        time.Duration `json:"elapsed_ns"`
	// CellsPerSec is the completion rate so far; ETA extrapolates it over
	// the remaining cells (zero when the rate is unknown).
	CellsPerSec float64       `json:"cells_per_sec"`
	ETA         time.Duration `json:"eta_ns"`
}

// Snapshot captures the current state. Safe on a nil tracker (zero value).
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := ProgressSnapshot{
		Total: p.total, Done: p.done, OK: p.ok, Failed: p.failed,
		Resumed: p.resumed, Retried: p.retried,
		JournalAppends: p.journalAppends, JournalPending: p.journalPending,
		Elapsed: time.Since(p.start),
	}
	type rc struct {
		id string
		at time.Time
	}
	run := make([]rc, 0, len(p.running))
	for id, r := range p.running {
		run = append(run, rc{id, r.at})
	}
	sort.Slice(run, func(i, j int) bool { return run[i].at.Before(run[j].at) })
	for _, r := range run {
		s.Running = append(s.Running, r.id)
	}
	if len(p.running) > 0 {
		s.RunningCycles = make(map[string]uint64, len(p.running))
		for id, r := range p.running {
			s.RunningCycles[id] = r.cycle
		}
	}
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
	if s.Retried > 0 {
		fmt.Fprintf(&b, ", %d retried", s.Retried)
	}
	if s.CellsPerSec > 0 {
		fmt.Fprintf(&b, ", %.1f cells/s", s.CellsPerSec)
	}
	if s.ETA > 0 {
		fmt.Fprintf(&b, ", eta %s", s.ETA.Round(time.Second))
	}
	return b.String()
}

// DebugServer serves sweep progress, expvar-style counters, and pprof over
// HTTP for live inspection of a long sweep.
type DebugServer struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string
	ln   net.Listener
	srv  *http.Server
}

// DebugMux returns the debug handler set observing p:
//
//	/debug/sweep  — the Progress snapshot as JSON
//	/debug/vars   — snapshot plus runtime memory statistics (expvar-style)
//	/debug/pprof/ — the standard pprof handlers
//
// Handlers live on a private mux, so tests (and embedders like the
// dncserved job service, which mounts this next to its own API) can build
// and discard servers freely without colliding on process-global
// registries.
func DebugMux(p *Progress) *http.ServeMux {
	mux := http.NewServeMux()
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	}
	mux.HandleFunc("/debug/sweep", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, p.Snapshot())
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		writeJSON(w, map[string]any{
			"sweep": p.Snapshot(),
			"memstats": map[string]uint64{
				"alloc":        ms.Alloc,
				"total_alloc":  ms.TotalAlloc,
				"sys":          ms.Sys,
				"heap_objects": ms.HeapObjects,
				"num_gc":       uint64(ms.NumGC),
			},
			"goroutines": runtime.NumGoroutine(),
		})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// StartDebug binds addr (e.g. "localhost:6060") and serves DebugMux(p) on a
// hardened server (header-read and idle timeouts per internal/httpx, so a
// stalled client cannot pin the process). The returned server is already
// serving; call Shutdown for a graceful stop or Close for an immediate one.
func StartDebug(addr string, p *Progress) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("runner: debug listen %s: %w", addr, err)
	}
	ds := &DebugServer{Addr: ln.Addr().String(), ln: ln, srv: httpx.NewServer(DebugMux(p))}
	go ds.srv.Serve(ln)
	return ds, nil
}

// Shutdown stops the server gracefully, letting in-flight requests finish
// until ctx expires, then force-closes whatever remains — it never hangs a
// drain (see httpx.Shutdown).
func (d *DebugServer) Shutdown(ctx context.Context) error {
	if d == nil || d.srv == nil {
		return nil
	}
	return httpx.Shutdown(ctx, d.srv)
}

// Close stops the server immediately.
func (d *DebugServer) Close() error {
	if d == nil || d.srv == nil {
		return nil
	}
	return d.srv.Close()
}
