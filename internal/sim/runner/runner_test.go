package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	wl "dnc/internal/cfg"
	"dnc/internal/isa"
	"dnc/internal/prefetch"
	"dnc/internal/sim"
)

// stuckDesign never opens the FTQ gate: the watchdog must abort its cell.
type stuckDesign struct{ prefetch.Base }

func (*stuckDesign) Name() string                                  { return "stuck" }
func (*stuckDesign) BTBLookup(isa.Addr, isa.Kind) (isa.Addr, bool) { return 0, false }
func (*stuckDesign) BTBCommit(isa.Addr, isa.Kind, isa.Addr, bool)  {}
func (*stuckDesign) FTQGate(isa.Addr) bool                         { return false }

// testWorkload is a small fast workload; the name/seed spread gives each
// sweep "workload" a distinct generated program.
func testWorkload(i int) wl.Params {
	return wl.Params{
		Name:             fmt.Sprintf("runner-wl-%d", i),
		FootprintBytes:   256 << 10,
		LoadFrac:         0.2,
		StoreFrac:        0.08,
		RareBlockFrac:    0.08,
		BackwardFrac:     0.1,
		CondFrac:         0.42,
		JumpFrac:         0.07,
		CallFrac:         0.22,
		IndirectCallFrac: 0.06,
		GenSeed:          int64(1000 + i),
	}
}

func testConfig(w int, nd func() prefetch.Design) sim.RunConfig {
	return sim.RunConfig{
		Workload:      testWorkload(w),
		NewDesign:     nd,
		Cores:         2,
		WarmCycles:    4_000,
		MeasureCycles: 4_000,
		Seed:          1,
	}
}

func newBaseline() prefetch.Design { return prefetch.NewBaseline(2048) }
func newNL() prefetch.Design       { return prefetch.NewNXL(1, 2048) }
func newFull() prefetch.Design {
	c := prefetch.DefaultProactiveConfig()
	c.WithBTBPrefetch = true
	return prefetch.NewProactive(c)
}

// TestSweepIsolatesPanicAndLivelock is the acceptance sweep: 7 workloads ×
// 3 designs, with one cell replaced by a panicking design constructor and
// one by a livelocked design. The sweep must complete every healthy cell
// with results identical to a direct run, and record the two failures.
func TestSweepIsolatesPanicAndLivelock(t *testing.T) {
	designs := []struct {
		name string
		nd   func() prefetch.Design
	}{{"baseline", newBaseline}, {"NL", newNL}, {"full", newFull}}

	var cells []Cell
	for w := 0; w < 7; w++ {
		for _, d := range designs {
			cells = append(cells, Cell{
				ID:     fmt.Sprintf("wl%d|%s", w, d.name),
				Config: testConfig(w, d.nd),
			})
		}
	}
	// Inject: cell 4 panics at design construction, cell 10 livelocks.
	cells[4].Config.NewDesign = func() prefetch.Design { panic("injected: bad configuration") }
	cells[10].Config.NewDesign = func() prefetch.Design { return &stuckDesign{} }
	cells[10].Config.WatchdogCycles = 3000

	rep, err := Sweep(context.Background(), cells, Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != len(cells)-2 || rep.Failed != 2 || rep.Resumed != 0 {
		t.Fatalf("ok/failed/resumed = %d/%d/%d, want %d/2/0",
			rep.OK, rep.Failed, rep.Resumed, len(cells)-2)
	}

	var re *sim.RunError
	if !errors.As(rep.Cells[4].Err, &re) {
		t.Errorf("panicked cell error %v, want *sim.RunError", rep.Cells[4].Err)
	}
	if !errors.Is(rep.Cells[10].Err, sim.ErrLivelock) {
		t.Errorf("stuck cell error %v, want livelock", rep.Cells[10].Err)
	}

	// Sibling cells of the failed ones are unharmed and deterministic.
	for _, idx := range []int{3, 5, 9, 11, 20} {
		got := rep.Cells[idx]
		if got.Status != StatusOK {
			t.Fatalf("cell %s failed: %v", got.ID, got.Err)
		}
		want := sim.Run(cells[idx].Config)
		if got.Result.M != want.M {
			t.Errorf("cell %s diverged from direct run", got.ID)
		}
	}
}

// TestSweepReportsAdvance pins the live-progress wiring: the engine's
// OnAdvance poll reports flow into the tracker's in-flight cycles while the
// cell runs, a callback the cell's own config installed still fires (chained
// after the tracker update, so it observes its own cycle in the snapshot),
// and the final report covers the full warm+measure span even though the
// window end is not a checkEvery multiple.
func TestSweepReportsAdvance(t *testing.T) {
	p := NewProgress()
	var last atomic.Uint64
	var tracked atomic.Bool
	tracked.Store(true)
	cell := Cell{ID: "adv", Config: testConfig(0, newBaseline)}
	cell.Config.OnAdvance = func(cycle uint64) {
		if cycle < last.Load() {
			t.Errorf("OnAdvance went backwards: %d after %d", cycle, last.Load())
		}
		last.Store(cycle)
		if inflightCycles(p) != cycle {
			tracked.Store(false)
		}
	}
	rep, err := Sweep(context.Background(), []Cell{cell}, Options{Progress: p})
	if err != nil || rep.OK != 1 {
		t.Fatalf("sweep: ok=%d err=%v", rep.OK, err)
	}
	total := cell.Config.WarmCycles + cell.Config.MeasureCycles
	if last.Load() != total {
		t.Errorf("final OnAdvance cycle = %d, want the full span %d", last.Load(), total)
	}
	if !tracked.Load() {
		t.Error("the tracker's in-flight cycles lagged the chained OnAdvance callback")
	}
	if got := inflightCycles(p); got != 0 {
		t.Errorf("in-flight cycles after the sweep = %d, want 0", got)
	}
}

func TestSweepJournalResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	var built atomic.Int64
	mkCell := func(i int) Cell {
		return Cell{
			ID: fmt.Sprintf("cell-%d", i),
			Config: testConfig(i, func() prefetch.Design {
				built.Add(1)
				return newBaseline()
			}),
		}
	}
	all := make([]Cell, 6)
	for i := range all {
		all[i] = mkCell(i)
	}

	// First sweep is "interrupted": only the first three cells ran.
	rep1, err := Sweep(context.Background(), all[:3], Options{Jobs: 2, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.OK != 3 {
		t.Fatalf("first sweep ok = %d, want 3", rep1.OK)
	}
	builtBefore := built.Load()

	// Simulate a crash mid-append: a truncated trailing line must not
	// poison resumption.
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":"cell-9","status":"ok","result":{"work`)
	f.Close()

	// Re-run the full sweep with the same journal: only the unfinished
	// cells execute.
	rep2, err := Sweep(context.Background(), all, Options{Jobs: 2, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Resumed != 3 || rep2.OK != 3 || rep2.Failed != 0 {
		t.Fatalf("resumed/ok/failed = %d/%d/%d, want 3/3/0",
			rep2.Resumed, rep2.OK, rep2.Failed)
	}
	// Each run builds Cores designs per cell: exactly 3 new cells ran.
	if ran := built.Load() - builtBefore; ran != 3*2 {
		t.Fatalf("resumed sweep constructed %d designs, want %d", ran, 3*2)
	}
	// Restored results carry the recorded metrics.
	for i := 0; i < 3; i++ {
		restored := rep2.Cells[i]
		if restored.Status != StatusResumed {
			t.Fatalf("cell %d status %s, want resumed", i, restored.Status)
		}
		if restored.Result.M != rep1.Cells[i].Result.M {
			t.Errorf("cell %d metrics changed across resume", i)
		}
	}

	// A third sweep resumes everything.
	rep3, err := Sweep(context.Background(), all, Options{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Resumed != 6 || built.Load() != builtBefore+6 {
		t.Fatalf("third sweep re-executed cells (resumed=%d)", rep3.Resumed)
	}
}

func TestSweepJournalRecordsFailures(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "fail.jsonl")
	cells := []Cell{{
		ID: "boom",
		Config: testConfig(0, func() prefetch.Design {
			panic("kaboom")
		}),
	}}
	if _, err := Sweep(context.Background(), cells, Options{JournalPath: journal}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		ID     string `json:"id"`
		Status Status `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("journal line unparsable: %v\n%s", err, data)
	}
	if e.Status != StatusFailed || e.Error == "" {
		t.Fatalf("failure not journaled: %+v", e)
	}

	// Failed cells are retried on resume, not skipped.
	cells[0].Config.NewDesign = newBaseline
	rep, err := Sweep(context.Background(), cells, Options{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 1 || rep.Resumed != 0 {
		t.Fatalf("failed cell not re-executed: %+v", rep)
	}
}

// TestSweepDefaultTransientDoesNotRetryPanics: a cell runs once. A panic
// in a deterministic simulator recurs on every attempt, so the sweep records
// it after the one run and moves on.
func TestSweepDefaultTransientDoesNotRetryPanics(t *testing.T) {
	var attempts atomic.Int64
	cells := []Cell{{
		ID: "fatal",
		Config: testConfig(0, func() prefetch.Design {
			attempts.Add(1)
			panic("deterministic bug")
		}),
	}}
	rep, err := Sweep(context.Background(), cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Cores design per run; the panic fires on the first construction.
	if rep.Cells[0].Status != StatusFailed || attempts.Load() != 1 {
		t.Fatalf("deterministic panic: status %s after %d runs, want failed after 1", rep.Cells[0].Status, attempts.Load())
	}
}

func TestSweepPerCellTimeout(t *testing.T) {
	cells := []Cell{{
		ID: "hung",
		Config: func() sim.RunConfig {
			rc := testConfig(0, func() prefetch.Design { return &stuckDesign{} })
			rc.WatchdogCycles = -1 // force the timeout, not the watchdog
			rc.WarmCycles = 1 << 40
			return rc
		}(),
	}}
	rep, err := Sweep(context.Background(), cells, Options{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rep.Cells[0].Err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", rep.Cells[0].Err)
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	cells := make([]Cell, 5)
	for i := range cells {
		cells[i] = Cell{ID: fmt.Sprintf("c%d", i), Config: testConfig(i, newBaseline)}
	}
	rep, err := Sweep(ctx, cells, Options{
		Jobs: 1,
		OnResult: func(CellResult) {
			if done.Add(1) == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep did not report cancellation: %v", err)
	}
	if rep.OK == 0 || rep.Failed == 0 {
		t.Fatalf("expected a mix of completed and cancelled cells: %+v", rep)
	}
	for _, c := range rep.Cells {
		if c.Status == StatusFailed && !errors.Is(c.Err, context.Canceled) {
			t.Errorf("cell %s failed with %v, want canceled", c.ID, c.Err)
		}
	}
}

func TestSweepRejectsDuplicateIDs(t *testing.T) {
	cells := []Cell{
		{ID: "same", Config: testConfig(0, newBaseline)},
		{ID: "same", Config: testConfig(1, newBaseline)},
	}
	if _, err := Sweep(context.Background(), cells, Options{}); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}
