package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"dnc/internal/resultstore"
	"dnc/internal/sim/runner"
)

// TestStoreEndToEnd is the acceptance run for the column store pipeline: a
// real multi-design × multi-workload × multi-seed sweep through the harness
// with -store-out semantics, proving that
//
//  1. every journaled cell lands in the store with its counters and
//     histograms reproduced exactly,
//  2. Scan's aggregates match values derived independently from the
//     journal, bit for bit, and
//  3. the store file costs at most 25% of the JSONL journal bytes for the
//     same information.
func TestStoreEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep skipped in -short mode")
	}
	dir := t.TempDir()
	storePath := filepath.Join(dir, "results.dncr")
	journalPath := filepath.Join(dir, "sweep.jsonl")
	cfg := Config{
		Cores:         2,
		WarmCycles:    20_000,
		MeasureCycles: 20_000,
		Seed:          1,
		Workloads:     []string{"Web-Frontend", "Web-Search"},
		Samples:       3,
		StorePath:     storePath,
	}
	h := New(cfg)
	if err := h.Prewarm(context.Background(), journalPath); err != nil {
		t.Fatalf("prewarm: %v", err)
	}
	if err := h.Err(); err != nil {
		t.Fatalf("harness: %v", err)
	}
	n, err := h.CloseStore()
	if err != nil {
		t.Fatalf("CloseStore: %v", err)
	}
	const wantCells = 2 * 3 * 3 // workloads × prewarm designs × samples
	if n != wantCells {
		t.Fatalf("store holds %d cells, want %d", n, wantCells)
	}

	// Load the journal: the uncompressed ground truth for every cell.
	journal := make(map[string]*runner.ResultJSON)
	jf, err := os.Open(journalPath)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	defer jf.Close()
	var journalBytes int64
	sc := bufio.NewScanner(jf)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		journalBytes += int64(len(sc.Bytes())) + 1
		var je struct {
			ID     string             `json:"id"`
			Status runner.Status      `json:"status"`
			Result *runner.ResultJSON `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &je); err != nil {
			t.Fatalf("bad journal line: %v", err)
		}
		if je.Status == runner.StatusOK && je.Result != nil {
			journal[je.ID] = je.Result
		}
	}
	if len(journal) != wantCells {
		t.Fatalf("journal has %d ok cells, want %d", len(journal), wantCells)
	}

	r, err := resultstore.OpenReader(storePath)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	cells, err := r.Cells(resultstore.CellOptions{WithHists: true})
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	if len(cells) != wantCells {
		t.Fatalf("store decodes %d cells, want %d", len(cells), wantCells)
	}

	// Exact reproduction: every store cell against its journal entry. The
	// runner cell ID is reconstructible from the cell's identity tags, so
	// the pairing needs no side channel.
	type gkey struct{ workload, design string }
	refVals := make(map[gkey][]float64) // journal-derived ipc, in store file order
	var order []gkey
	for i := range cells {
		c := &cells[i]
		x := int((c.Seed - cfg.Seed) / 7919)
		id := fmt.Sprintf("%s|%s|%s|c%d|w%d|m%d|s%d|x%d", c.Workload, c.Design, c.Mode,
			cfg.Cores, cfg.WarmCycles, cfg.MeasureCycles, cfg.Seed, x)
		res := journal[id]
		if res == nil {
			t.Fatalf("store cell %s has no journal entry %s", c.Key(), id)
		}
		var want resultstore.Cell
		want.SetResult(res)
		if !reflect.DeepEqual(c.Metrics, want.Metrics) {
			t.Fatalf("cell %s: store metrics differ from journal:\nstore   %v\njournal %v",
				c.Key(), c.Metrics, want.Metrics)
		}
		if len(c.Hists) == 0 {
			t.Fatalf("cell %s has no histograms; StorePath should enable obs capture", c.Key())
		}
		if !reflect.DeepEqual(c.Hists, want.Hists) {
			t.Fatalf("cell %s: store histograms differ from journal", c.Key())
		}
		k := gkey{c.Workload, c.Design}
		if _, seen := refVals[k]; !seen {
			order = append(order, k)
		}
		refVals[k] = append(refVals[k], float64(res.M.Retired)/float64(res.M.Cycles))
	}

	// Aggregates: Scan against the same reduction computed from journal
	// values, in store file order with identical float operations.
	groups, err := resultstore.Scan(r, resultstore.Query{Metric: resultstore.MetricIPC})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].workload != order[j].workload {
			return order[i].workload < order[j].workload
		}
		return order[i].design < order[j].design
	})
	if len(groups) != len(order) {
		t.Fatalf("Scan returned %d groups, want %d", len(groups), len(order))
	}
	for i, k := range order {
		vals := refVals[k]
		want := resultstore.Group{Workload: k.workload, Design: k.design, N: len(vals), Min: vals[0], Max: vals[0]}
		var sum float64
		for _, v := range vals {
			sum += v
			if v < want.Min {
				want.Min = v
			}
			if v > want.Max {
				want.Max = v
			}
		}
		want.Mean = sum / float64(want.N)
		var ss float64
		for _, v := range vals {
			d := v - want.Mean
			ss += d * d
		}
		// Three seeds: Student t at two degrees of freedom.
		if want.N != 3 {
			t.Fatalf("group %s/%s has %d cells, want one per sample", k.workload, k.design, want.N)
		}
		want.CI95 = 4.303 * math.Sqrt(ss/float64(want.N-1)) / math.Sqrt(float64(want.N))
		if groups[i] != want {
			t.Fatalf("group %s/%s: store aggregate %+v != journal-derived %+v",
				k.workload, k.design, groups[i], want)
		}
	}

	// Compression: the acceptance bound from the issue — the store answers
	// the same questions at ≤25% of the journal's JSONL footprint.
	fi, err := os.Stat(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size()*4 > journalBytes {
		t.Fatalf("store is %d bytes, journal %d: store exceeds 25%% of the journal",
			fi.Size(), journalBytes)
	}
	t.Logf("store %d bytes vs journal %d bytes (%.1f%%)",
		fi.Size(), journalBytes, 100*float64(fi.Size())/float64(journalBytes))
}
