package runner

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestJournalSurfacesWriteErrors: a journal that can no longer be written
// (file closed underneath, disk gone) must report the failure through Err
// instead of silently losing the record — Sweep folds this into its return.
func TestJournalSurfacesWriteErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.f.Close() // simulate the descriptor dying underneath the journal
	j.append(CellResult{ID: "c0", Status: StatusOK})
	if j.Err() == nil {
		t.Fatal("write onto a dead journal reported no error")
	}
	j.f = nil // already closed; keep close() from double-closing
}

// TestJournalResumesSeriesLine: testdata/store_out_series.jsonl is one
// journal line written by an earlier dncbench -store-out, whose results
// carried obs.series (sampled gauge time-series) that this build no longer
// has. The cell must still resume from it, with every counter and
// histogram intact.
func TestJournalResumesSeriesLine(t *testing.T) {
	line, err := os.ReadFile(filepath.Join("testdata", "store_out_series.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		ID     string `json:"id"`
		Result struct {
			M   struct{ Retired uint64 } `json:"m"`
			Obs struct {
				Hists  []json.RawMessage `json:"hists"`
				Series []json.RawMessage `json:"series"`
			} `json:"obs"`
		} `json:"result"`
	}
	if err := json.Unmarshal(line, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw.Result.Obs.Series) == 0 {
		t.Fatal("fixture carries no obs.series; it no longer tests the old wire form")
	}
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	if err := os.WriteFile(journal, line, 0o644); err != nil {
		t.Fatal(err)
	}
	cell := Cell{ID: raw.ID, Config: testConfig(0, newBaseline)}
	rep, err := Sweep(context.Background(), []Cell{cell}, Options{JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Cells[0]
	if got.Status != StatusResumed {
		t.Fatalf("status = %s (err %v), want %s", got.Status, got.Err, StatusResumed)
	}
	if got.Result.M.Retired != raw.Result.M.Retired || got.Result.M.Retired == 0 {
		t.Errorf("resumed Retired = %d, want %d", got.Result.M.Retired, raw.Result.M.Retired)
	}
	if got.Result.Obs == nil || len(got.Result.Obs.Hists) != len(raw.Result.Obs.Hists) {
		t.Errorf("resumed result lost its histograms: %+v", got.Result.Obs)
	}
}
