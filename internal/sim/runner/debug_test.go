package runner

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	p.addTotal(5)
	p.begin("x")
	p.observe(CellResult{ID: "x", Status: StatusOK})
	p.journalLag(1, 1)
	if s := p.Snapshot(); s.Total != 0 || s.Done != 0 {
		t.Errorf("nil Snapshot = %+v, want zero", s)
	}
}

func TestProgressTally(t *testing.T) {
	p := NewProgress()
	p.addTotal(4)
	p.begin("a")
	p.begin("b")
	p.observe(CellResult{ID: "a", Status: StatusOK, Attempts: 1})
	p.observe(CellResult{ID: "b", Status: StatusFailed, Attempts: 3})
	p.begin("c")
	p.journalLag(2, 1)

	s := p.Snapshot()
	if s.Total != 4 || s.Done != 2 || s.OK != 1 || s.Failed != 1 || s.Retried != 2 {
		t.Errorf("snapshot = %+v", s)
	}
	if len(s.Running) != 1 || s.Running[0] != "c" {
		t.Errorf("Running = %v, want [c]", s.Running)
	}
	if s.JournalAppends != 2 || s.JournalPending != 1 {
		t.Errorf("journal lag = %d/%d, want 2/1", s.JournalAppends, s.JournalPending)
	}
	str := s.String()
	for _, want := range []string{"2/4 cells", "1 failed", "2 retried"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q, missing %q", str, want)
		}
	}
}

func TestProgressRunningCycles(t *testing.T) {
	p := NewProgress()
	p.Advance("ghost", 99) // before begin: ignored, not resurrected
	p.begin("a")
	p.begin("b")
	p.Advance("a", 1024)
	p.Advance("a", 2048) // monotone updates overwrite
	s := p.Snapshot()
	if got := s.RunningCycles["a"]; got != 2048 {
		t.Errorf("RunningCycles[a] = %d, want 2048", got)
	}
	if got := s.RunningCycles["b"]; got != 0 {
		t.Errorf("RunningCycles[b] = %d, want 0 before its first poll", got)
	}
	if _, ok := s.RunningCycles["ghost"]; ok {
		t.Error("advance before begin created a running entry")
	}
	p.observe(CellResult{ID: "a", Status: StatusOK})
	p.Advance("a", 4096) // after completion: ignored
	if s := p.Snapshot(); len(s.RunningCycles) != 1 || s.RunningCycles["b"] != 0 {
		t.Errorf("RunningCycles after a finished = %v, want only b", s.RunningCycles)
	}
	p.observe(CellResult{ID: "b", Status: StatusOK})
	if s := p.Snapshot(); s.RunningCycles != nil {
		t.Errorf("RunningCycles with nothing running = %v, want nil", s.RunningCycles)
	}
}

func TestProgressRunningOrder(t *testing.T) {
	p := NewProgress()
	p.begin("first")
	time.Sleep(2 * time.Millisecond)
	p.begin("second")
	if s := p.Snapshot(); len(s.Running) != 2 || s.Running[0] != "first" {
		t.Errorf("Running = %v, want longest-running first", s.Running)
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

func TestStartDebugEndpoints(t *testing.T) {
	p := NewProgress()
	p.addTotal(3)
	p.observe(CellResult{ID: "a", Status: StatusOK})

	srv, err := StartDebug("127.0.0.1:0", p)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var snap ProgressSnapshot
	if err := json.Unmarshal(get("/debug/sweep"), &snap); err != nil {
		t.Fatalf("sweep body: %v", err)
	}
	if snap.Total != 3 || snap.Done != 1 || snap.OK != 1 {
		t.Errorf("served snapshot = %+v", snap)
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("vars body: %v", err)
	}
	for _, key := range []string{"sweep", "memstats", "goroutines"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %q", key)
		}
	}

	if body := get("/debug/pprof/"); !strings.Contains(string(body), "goroutine") {
		t.Error("pprof index not served")
	}
}

func TestDebugServerCloseNil(t *testing.T) {
	var d *DebugServer
	if err := d.Close(); err != nil {
		t.Errorf("nil Close = %v", err)
	}
}

func TestStartDebugBadAddr(t *testing.T) {
	if _, err := StartDebug("256.0.0.1:-1", nil); err == nil {
		t.Fatal("no error for unusable address")
	}
}
