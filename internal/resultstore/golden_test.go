package resultstore

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden store fixtures")

// goldenCells is the fixed fixture sweep: 2 designs × 2 workloads × 2
// seeds with hand-written metrics and one histogram each. Everything is a
// literal — goldens must not depend on the simulator. v1_basic.dncr holds
// these cells plus two sampled time-series each, written by a build that
// still stored series; v1_noseries.dncr holds them as written now.
func goldenCells() []Cell {
	var cells []Cell
	for wi, w := range []string{"flat-loops", "mixed-branchy"} {
		for di, d := range []string{"baseline", "confluence"} {
			for s := 0; s < 2; s++ {
				i := uint64(wi*4 + di*2 + s)
				cells = append(cells, Cell{
					Workload: w, Design: d, Mode: "fixed", Cores: 4,
					Warm: 50_000, Measure: 40_000, Seed: int64(1 + s*7919),
					Metrics: map[string]uint64{
						"m.Cycles":                 160_000,
						"m.Retired":                201_500 + i*333,
						"m.DemandMisses":           8_000 - i*17,
						"m.StallICache":            12_345 + i,
						"llc.InstHits":             44_000 + i*5,
						"noc.flits":                1_000_000 + i,
						"dram.queued":              77 + i,
						"storage.bits":             393_216,
						"ctr.mshr.highwater.core0": 12 + i,
					},
					Hists: []Hist{{
						Name:   "lat.l1i.demand",
						Bounds: []uint64{8, 12, 18, 27, 40},
						Counts: []uint64{100 + i, 220, 85, 30, 9, 2},
						N:      446 + i, Sum: 6_240 + i*11, Min: 9, Max: 52,
					}},
				})
			}
		}
	}
	return cells
}

func goldenPath(name string) string { return filepath.Join("testdata", name) }

func writeOrCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoder output changed (%d bytes, golden %d).\n"+
			"The store is a durable wire format: if this change is intentional it is a\n"+
			"format revision — bump Version, keep the v1 decode path, and regenerate\n"+
			"with -update. Silent byte drift breaks every store already on disk.",
			name, len(got), len(want))
	}
}

// TestGoldenByteStability: encoding the fixture cells must reproduce the
// committed v1 bytes exactly — same input, identical bytes, forever.
func TestGoldenByteStability(t *testing.T) {
	writeOrCompare(t, "v1_noseries.dncr", Marshal(goldenCells()))
}

// TestGoldenV1Decode: the committed v1 fixture must decode to the exact
// fixture cells on every future build — v1 stays readable forever; its
// series section is checked for framing and skipped. This test must never
// be "fixed" by regenerating the fixture: a failure means a decoder change
// broke compatibility with stores already on disk.
func TestGoldenV1Decode(t *testing.T) {
	data, err := os.ReadFile(goldenPath("v1_basic.dncr"))
	if err != nil {
		t.Fatalf("missing golden fixture: %v", err)
	}
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Verify(); err != nil {
		t.Fatal(err)
	}
	got, err := r.Cells(CellOptions{WithHists: true})
	if err != nil {
		t.Fatal(err)
	}
	cellsEqual(t, got, goldenCells())

	// Push-down and aggregation answers over the v1 fixture are pinned too.
	groups, err := Scan(r, Query{Metric: MetricIPC, Designs: []string{"confluence"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || groups[0].N != 2 || groups[0].Design != "confluence" {
		t.Fatalf("v1 scan = %+v", groups)
	}
}

// TestGoldenFixturesAgree: the store written with series (v1_basic.dncr)
// and the one written without (v1_noseries.dncr) are the same sweep to
// every reader — equal cells, and equal answers to every query over their
// metrics, filtered or not.
func TestGoldenFixturesAgree(t *testing.T) {
	open := func(name string) *Reader {
		data, err := os.ReadFile(goldenPath(name))
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(data)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	old, cur := open("v1_basic.dncr"), open("v1_noseries.dncr")
	if old.Size() <= cur.Size() {
		t.Fatalf("v1_basic.dncr (%d bytes) holds no more than v1_noseries.dncr (%d): the series are gone from the fixture",
			old.Size(), cur.Size())
	}
	for _, opt := range []CellOptions{{}, {WithHists: true}} {
		a, err := old.Cells(opt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cur.Cells(opt)
		if err != nil {
			t.Fatal(err)
		}
		cellsEqual(t, a, b)
	}
	metrics := []string{MetricIPC, "no.such"}
	for name := range goldenCells()[0].Metrics {
		metrics = append(metrics, name)
	}
	var queries []Query
	for _, m := range metrics {
		for _, w := range [][]string{nil, {"flat-loops"}, {"w-none"}} {
			for _, d := range [][]string{nil, {"confluence"}} {
				for _, sd := range [][]int64{nil, {1}} {
					queries = append(queries, Query{Metric: m, Workloads: w, Designs: d, Seeds: sd})
				}
			}
		}
	}
	for _, q := range queries {
		want, wantErr := Scan(old, q)
		got, err := Scan(cur, q)
		sameAnswer(t, "v1_noseries.dncr vs v1_basic.dncr", q, got, err, want, wantErr)
	}
}

// TestGoldenRegressionCorpus replays every store file in
// testdata/regression/ through the full decoder. The corpus accumulates
// one file per decoder bug ever found (fuzz crashers, field reports); each
// must keep decoding without panic and with a typed error at worst.
func TestGoldenRegressionCorpus(t *testing.T) {
	dir := goldenPath("regression")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("missing regression corpus dir: %v", err)
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) == ".md" {
			continue
		}
		n++
		t.Run(e.Name(), func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			// Must not panic; errors must be typed (checked by the same
			// predicate the fuzzer uses).
			if _, err := decodeAll(data, CellOptions{WithHists: true}); err != nil {
				assertTypedError(t, err)
			}
		})
	}
	if n == 0 {
		t.Fatal("regression corpus is empty — the seed crasher file is missing")
	}
}

func assertTypedError(t *testing.T, err error) {
	t.Helper()
	for _, typed := range []error{ErrTruncated, ErrCorrupt, ErrVersion, ErrChecksum} {
		if errors.Is(err, typed) {
			return
		}
	}
	t.Fatalf("untyped decode error: %v", err)
}
