package runner

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dnc/internal/telemetry"
)

func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	p.addTotal(5)
	p.begin("x")
	p.advance("x", 10)
	p.observe(CellResult{ID: "x", Status: StatusOK})
	if s := p.Snapshot(); s.Total != 0 || s.Done != 0 {
		t.Errorf("nil Snapshot = %+v, want zero", s)
	}
	reg := telemetry.NewRegistry()
	p.Register(reg)
	if n := reg.Names(); len(n) != 0 {
		t.Errorf("nil tracker registered %v", n)
	}
	NewProgress().Register(nil) // a nil registry takes nothing
}

func TestProgressTally(t *testing.T) {
	p := NewProgress()
	p.addTotal(4)
	p.begin("a")
	p.begin("b")
	p.observe(CellResult{ID: "a", Status: StatusOK})
	p.observe(CellResult{ID: "b", Status: StatusFailed})
	p.begin("c")

	s := p.Snapshot()
	if s.Total != 4 || s.Done != 2 || s.OK != 1 || s.Failed != 1 {
		t.Errorf("snapshot = %+v", s)
	}
	str := s.String()
	for _, want := range []string{"2/4 cells", "1 failed"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q, missing %q", str, want)
		}
	}
}

// inflightCycles reads the running-cycles sum the way a scrape does.
func inflightCycles(p *Progress) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cycles
}

func TestProgressInflightCycles(t *testing.T) {
	p := NewProgress()
	p.advance("ghost", 99) // before begin: ignored, not resurrected
	p.begin("a")
	p.begin("b")
	p.advance("a", 1024)
	p.advance("a", 2048) // monotone updates overwrite
	p.advance("b", 512)
	if got := inflightCycles(p); got != 2048+512 {
		t.Errorf("in-flight cycles = %d, want %d", got, 2048+512)
	}
	p.begin("b") // a retry restarts from cycle 0
	if got := inflightCycles(p); got != 2048 {
		t.Errorf("in-flight cycles after b restarted = %d, want 2048", got)
	}
	p.observe(CellResult{ID: "a", Status: StatusOK})
	p.advance("a", 4096) // after completion: ignored
	if got := inflightCycles(p); got != 0 {
		t.Errorf("in-flight cycles after a finished = %d, want 0 (b not yet polled)", got)
	}
	p.advance("b", 100)
	p.observe(CellResult{ID: "b", Status: StatusOK})
	if got := inflightCycles(p); got != 0 {
		t.Errorf("in-flight cycles with nothing running = %d, want 0", got)
	}
}

func TestProgressETA(t *testing.T) {
	p := NewProgress()
	p.addTotal(10)
	p.start = time.Now().Add(-time.Second)
	for i := 0; i < 5; i++ {
		p.observe(CellResult{Status: StatusOK})
	}
	s := p.Snapshot()
	if s.CellsPerSec <= 0 {
		t.Errorf("CellsPerSec = %v", s.CellsPerSec)
	}
	if s.ETA <= 0 {
		t.Errorf("ETA = %v with half the cells left", s.ETA)
	}
}

// scrapeProgress renders reg, reports any lint finding, and parses the
// samples into name → value. It only calls t.Errorf, so scraper goroutines
// may use it.
func scrapeProgress(t *testing.T, reg *telemetry.Registry) map[string]float64 {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Error(err)
	}
	if errs := telemetry.Lint(b.Bytes()); len(errs) != 0 {
		t.Errorf("exposition lint: %v\n%s", errs, b.String())
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, _ := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Errorf("bad sample %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// TestProgressMetrics pins every series Register exports: a scripted tally
// reads back exactly, and scrapes running concurrently with a 4-worker
// Sweep lint clean, never see a counter go backwards, and end on the
// sweep's report. CI runs it under -race -count=10.
func TestProgressMetrics(t *testing.T) {
	p := NewProgress()
	reg := telemetry.NewRegistry()
	p.Register(reg)

	p.addTotal(5)
	p.begin("a")
	p.begin("b")
	p.begin("c")
	p.advance("a", 3000)
	p.advance("b", 1000)
	p.observe(CellResult{ID: "c", Status: StatusOK})
	p.observe(CellResult{ID: "d", Status: StatusResumed})
	p.observe(CellResult{ID: "e", Status: StatusFailed})
	want := map[string]float64{
		"dnc_cells_simulated_total":      1,
		"dnc_inflight_cells":             2,
		"dnc_sweep_inflight_cycles":      4000,
		"dnc_sweep_cells_expected_total": 5,
		"dnc_sweep_cells_done_total":     3,
		"dnc_sweep_cells_failed_total":   1,
		"dnc_sweep_cells_resumed_total":  1,
	}
	got := scrapeProgress(t, reg)
	if len(got) != len(want) || len(reg.Names()) != len(want) {
		t.Fatalf("served %d samples over %d families, want %d: %v", len(got), len(reg.Names()), len(want), got)
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}

	// Live: a fresh tracker scraped in a loop while four workers sweep.
	p = NewProgress()
	reg = telemetry.NewRegistry()
	p.Register(reg)
	var cells []Cell
	for i := 0; i < 12; i++ {
		cfg := testConfig(i%3, newBaseline)
		cfg.Seed = int64(i + 1)
		cells = append(cells, Cell{ID: fmt.Sprintf("c%d", i), Config: cfg})
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := map[string]float64{}
			for {
				select {
				case <-done:
					return
				default:
				}
				m := scrapeProgress(t, reg)
				for name, v := range m {
					if strings.HasSuffix(name, "_total") && v < prev[name] {
						t.Errorf("%s went backwards: %v after %v", name, v, prev[name])
					}
				}
				if m["dnc_inflight_cells"] > 4 {
					t.Errorf("dnc_inflight_cells = %v with 4 workers", m["dnc_inflight_cells"])
				}
				if m["dnc_sweep_cells_done_total"] > m["dnc_sweep_cells_expected_total"] {
					t.Errorf("done %v > expected %v", m["dnc_sweep_cells_done_total"], m["dnc_sweep_cells_expected_total"])
				}
				prev = m
			}
		}()
	}
	rep, err := Sweep(context.Background(), cells, Options{Jobs: 4, Progress: p})
	close(done)
	wg.Wait()
	if err != nil || rep.OK != len(cells) {
		t.Fatalf("sweep: ok=%d err=%v", rep.OK, err)
	}
	n := float64(len(cells))
	got = scrapeProgress(t, reg)
	for name, v := range map[string]float64{
		"dnc_cells_simulated_total":      n,
		"dnc_inflight_cells":             0,
		"dnc_sweep_inflight_cycles":      0,
		"dnc_sweep_cells_expected_total": n,
		"dnc_sweep_cells_done_total":     n,
		"dnc_sweep_cells_failed_total":   0,
		"dnc_sweep_cells_resumed_total":  0,
	} {
		if got[name] != v {
			t.Errorf("after the sweep %s = %v, want %v", name, got[name], v)
		}
	}
}
