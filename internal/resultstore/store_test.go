package resultstore

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// testCell builds a fully populated cell, varied by index so deltas are
// non-trivial.
func testCell(i int) Cell {
	c := Cell{
		Workload: []string{"mixed-branchy", "flat-loops"}[i%2],
		Design:   []string{"baseline", "full", "confluence"}[i%3],
		Mode:     "fixed",
		Cores:    16,
		Warm:     100_000,
		Measure:  80_000,
		Seed:     int64(1 + i*7919),
		Metrics: map[string]uint64{
			"m.Cycles":       80_000,
			"m.Retired":      uint64(120_000 + i*1000),
			"m.DemandMisses": uint64(4000 - i*100),
			"llc.InstHits":   uint64(9000 + i),
			"noc.flits":      uint64(1 << (20 + i%3)),
			"storage.bits":   65536,
		},
		Hists: []Hist{{
			Name:   "lat.l1i.demand",
			Bounds: []uint64{8, 12, 18, 27},
			Counts: []uint64{10, 20, uint64(30 + i), 5, 1},
			N:      uint64(66 + i), Sum: uint64(900 + i), Min: 9, Max: 31,
		}},
	}
	return c
}

func cellsEqual(t *testing.T, got, want []Cell) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("cell %d differs:\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	cells := make([]Cell, 7)
	for i := range cells {
		cells[i] = testCell(i)
	}
	got, err := decodeSegment(encodeSegment(cells), CellOptions{WithHists: true})
	if err != nil {
		t.Fatal(err)
	}
	cellsEqual(t, got, cells)
}

func TestSegmentSectionSkipping(t *testing.T) {
	cells := []Cell{testCell(0), testCell(1)}
	got, err := decodeSegment(encodeSegment(cells), CellOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Hists != nil {
			t.Fatalf("cell %d decoded the histogram section without opting in", i)
		}
		if len(got[i].Metrics) != len(cells[i].Metrics) {
			t.Fatalf("cell %d metrics lost when skipping sections", i)
		}
	}
}

func TestSegmentPredicatePushdown(t *testing.T) {
	cells := make([]Cell, 6)
	for i := range cells {
		cells[i] = testCell(i)
	}
	payload := encodeSegment(cells)

	got, err := decodeSegment(payload, CellOptions{Workloads: []string{"flat-loops"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Workload != "flat-loops" {
			t.Fatalf("filter leaked workload %q", got[i].Workload)
		}
	}
	if len(got) != 3 {
		t.Fatalf("workload filter returned %d cells, want 3", len(got))
	}

	// A tag absent from the dictionary skips the segment entirely.
	got, err = decodeSegment(payload, CellOptions{Designs: []string{"no-such-design"}})
	if err != nil || got != nil {
		t.Fatalf("absent-tag scan = (%v, %v), want (nil, nil)", got, err)
	}

	got, err = decodeSegment(payload, CellOptions{Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Seed != 1 {
		t.Fatalf("seed filter returned %+v", got)
	}
}

func TestMarshalReaderRoundTrip(t *testing.T) {
	cells := []Cell{testCell(0), testCell(1), testCell(2)}
	r, err := NewReader(Marshal(cells))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := r.Verify(); err != nil || n != 1 {
		t.Fatalf("Verify = (%d, %v), want (1, nil)", n, err)
	}
	got, err := r.Cells(CellOptions{WithHists: true})
	if err != nil {
		t.Fatal(err)
	}
	cellsEqual(t, got, cells)
}

func TestWriterAppendReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.dncr")
	w, err := OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []Cell
	for i := 0; i < 5; i++ {
		c := testCell(i)
		want = append(want, c)
		if ok, err := w.Append(c); err != nil || !ok {
			t.Fatalf("Append(%d) = (%v, %v)", i, ok, err)
		}
	}
	// Duplicate key: dropped, not an error.
	if ok, err := w.Append(testCell(0)); err != nil || ok {
		t.Fatalf("duplicate Append = (%v, %v), want (false, nil)", ok, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: existing cells are remembered, appends accumulate.
	w, err = OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Has(want[0].Key()) || w.Len() != 5 {
		t.Fatalf("reopened writer lost keys: len=%d", w.Len())
	}
	c := testCell(5)
	c.Workload = "fresh-workload"
	want = append(want, c)
	if ok, err := w.Append(c); err != nil || !ok {
		t.Fatalf("Append after reopen = (%v, %v)", ok, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Cells(CellOptions{WithHists: true})
	if err != nil {
		t.Fatal(err)
	}
	cellsEqual(t, got, want)
}

// TestWriterTornTailRecovery: a crash mid-append leaves a half-written
// block; the checksum detects it, reopen truncates it, and every cell
// flushed before it survives — while the torn cells' keys are forgotten so
// they can re-append.
func TestWriterTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.dncr")
	w, err := OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	durable := []Cell{testCell(0), testCell(1)}
	for _, c := range durable {
		w.Append(c)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate the torn append: a second block cut off mid-payload.
	torn := appendBlock(nil, blockSegment, encodeSegment([]Cell{testCell(2)}))
	for _, cut := range []int{1, 5, len(torn) / 2, len(torn) - 1} {
		if err := os.WriteFile(path, append(append([]byte{}, intact...), torn[:cut]...), 0o644); err != nil {
			t.Fatal(err)
		}
		// Strict read refuses the torn file.
		r, err := OpenReader(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Cells(CellOptions{}); !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
			t.Fatalf("cut %d: strict read error = %v, want truncated/checksum", cut, err)
		}

		// Writer reopen recovers: durable cells intact, torn cell gone.
		w, err := OpenWriter(path)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		c2 := testCell(2)
		if w.Len() != 2 || w.Has(c2.Key()) {
			t.Fatalf("cut %d: recovered writer has %d keys", cut, w.Len())
		}
		if ok, err := w.Append(testCell(2)); err != nil || !ok {
			t.Fatalf("cut %d: re-append = (%v, %v)", cut, ok, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err = OpenReader(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Cells(CellOptions{WithHists: true})
		if err != nil {
			t.Fatalf("cut %d: read after recovery: %v", cut, err)
		}
		cellsEqual(t, got, []Cell{testCell(0), testCell(1), testCell(2)})
	}
}

// TestWriterRefusesForeignFile: recovery must never truncate a file that
// is not a result store.
func TestWriterRefusesForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notastore")
	content := []byte("precious bytes that are definitely not a store")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWriter(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenWriter on foreign file = %v, want ErrCorrupt", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, content) {
		t.Fatal("OpenWriter modified a foreign file")
	}
}

func TestVersionRefused(t *testing.T) {
	data := Marshal([]Cell{testCell(0)})
	data[4] = 99 // version low byte
	if _, err := NewReader(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version = %v, want ErrVersion", err)
	}
}

func TestCorruptBlockDetected(t *testing.T) {
	data := Marshal([]Cell{testCell(0), testCell(1)})
	for _, at := range []int{headerSize + 1, headerSize + 10, len(data) - 2} {
		mut := append([]byte{}, data...)
		mut[at] ^= 0x40
		r, err := NewReader(mut)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Cells(CellOptions{}); err == nil {
			t.Fatalf("bit flip at %d went undetected", at)
		}
		if _, err := r.Verify(); err == nil {
			t.Fatalf("Verify missed bit flip at %d", at)
		}
	}
}

// TestScanCIStudentT: at three seeds the interval is Student t with two
// degrees of freedom (4.303), not the normal 1.96 — 2.2× wider. IPCs 1, 2
// and 3 have mean 2 and sample standard deviation exactly 1, on both the
// in-memory index and the file.
func TestScanCIStudentT(t *testing.T) {
	var cells []Cell
	for seed, ret := range []uint64{1000, 2000, 3000} {
		cells = append(cells, Cell{
			Workload: "w", Design: "d", Mode: "fixed", Cores: 1,
			Warm: 10, Measure: 1000, Seed: int64(seed),
			Metrics: map[string]uint64{"m.Cycles": 1000, "m.Retired": ret},
		})
	}
	want := Group{Workload: "w", Design: "d", N: 3, Mean: 2, Min: 1, Max: 3,
		CI95: 4.303 * 1 / math.Sqrt(3)}
	r, err := NewReader(Marshal(cells))
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenWriter(filepath.Join(t.TempDir(), "s.dncr"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, c := range cells {
		if _, err := w.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	for name, scan := range map[string]func(Query) ([]Group, error){
		"file":   func(q Query) ([]Group, error) { return Scan(r, q) },
		"writer": w.Scan,
	} {
		groups, err := scan(Query{Metric: MetricIPC})
		if err != nil {
			t.Fatal(err)
		}
		if len(groups) != 1 || groups[0] != want {
			t.Fatalf("%s scan = %+v, want %+v", name, groups, want)
		}
	}
}

func TestScanAggregates(t *testing.T) {
	// 2 designs × 1 workload × 3 seeds with known retired counts.
	var cells []Cell
	retired := map[string][]uint64{"baseline": {100, 110, 120}, "full": {200, 220, 240}}
	for design, rs := range retired {
		for seed, ret := range rs {
			cells = append(cells, Cell{
				Workload: "w", Design: design, Mode: "fixed", Cores: 1,
				Warm: 10, Measure: 100, Seed: int64(seed),
				Metrics: map[string]uint64{"m.Cycles": 100, "m.Retired": ret},
			})
		}
	}
	r, err := NewReader(Marshal(cells))
	if err != nil {
		t.Fatal(err)
	}
	groups, err := Scan(r, Query{Metric: MetricIPC})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	if groups[0].Design != "baseline" || groups[1].Design != "full" {
		t.Fatalf("groups not sorted: %+v", groups)
	}
	g := groups[0]
	// Mirror the scan's runtime float path (Go constant arithmetic is
	// arbitrary-precision, which would round differently).
	ipcs := []float64{100.0 / 100, 110.0 / 100, 120.0 / 100}
	wantMean := (ipcs[0] + ipcs[1] + ipcs[2]) / float64(3)
	if g.N != 3 || g.Mean != wantMean || g.Min != 1.0 || g.Max != 1.2 {
		t.Fatalf("baseline group = %+v", g)
	}
	if g.CI95 <= 0 {
		t.Fatalf("CI95 = %v, want > 0 for 3 samples", g.CI95)
	}
	// Filtered scan.
	groups, err = Scan(r, Query{Metric: "m.Retired", Designs: []string{"full"}, Seeds: []int64{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || groups[0].N != 2 || groups[0].Mean != 220 {
		t.Fatalf("filtered scan = %+v", groups)
	}
	// Unknown metric is an error, not a zero.
	if _, err := Scan(r, Query{Metric: "no.such"}); err == nil {
		t.Fatal("unknown metric scanned without error")
	}
	if _, err := Scan(r, Query{}); err == nil {
		t.Fatal("empty metric accepted")
	}
}

func TestCellKeyMatchesServiceKey(t *testing.T) {
	c := testCell(0)
	want := "v1|w=mixed-branchy|d=baseline|m=fixed|c=16|warm=100000|meas=80000|seed=1"
	if got := c.Key(); got != want {
		t.Fatalf("Key = %q, want %q", got, want)
	}
}

// TestWriterAnswersThroughWriteError: a write failure is sticky for the
// file, not for the answers — every cell Append accepts is in Scan, Has and
// Len whether or not it could be written, and each such Append says so.
func TestWriterAnswersThroughWriteError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.dncr")
	w, err := OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	w.perSeg = 2
	if ok, err := w.Append(testCell(0)); err != nil || !ok {
		t.Fatalf("Append(0) = (%v, %v)", ok, err)
	}
	w.f.Close() // the descriptor dies under the writer
	for i := 1; i < 4; i++ {
		// Cell 1 fills the batch and hits the failing seal; 2 and 3 meet the
		// sticky error.
		if ok, err := w.Append(testCell(i)); err == nil || !ok {
			t.Fatalf("Append(%d) on a dead file = (%v, %v), want accepted with the write error", i, ok, err)
		}
	}
	if ok, err := w.Append(testCell(2)); err != nil || ok {
		t.Fatalf("duplicate Append on a dead file = (%v, %v), want (false, nil)", ok, err)
	}
	groups, err := w.Scan(Query{Metric: "m.Retired"})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, g := range groups {
		n += g.N
	}
	c3 := testCell(3)
	if n != 4 || w.Len() != 4 || !w.Has(c3.Key()) {
		t.Fatalf("after the write error Scan counts %d cells, Len %d, Has(last) %v; want 4, 4, true", n, w.Len(), w.Has(c3.Key()))
	}
	if w.Size() != headerSize {
		t.Fatalf("Size = %d after a failed seal, want the header's %d", w.Size(), headerSize)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close after a write error returned nil")
	}
}

// TestWriterSizeTracksFile: Size is the file's size without asking the file
// system — across seals, a reopen and a truncated torn tail.
func TestWriterSizeTracksFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.dncr")
	onDisk := func() int64 {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	w, err := OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	w.perSeg = 3
	for i := 0; i < 8; i++ {
		if _, err := w.Append(testCell(i)); err != nil {
			t.Fatal(err)
		}
		if w.Size() != onDisk() {
			t.Fatalf("after %d appends Size = %d, file is %d bytes", i+1, w.Size(), onDisk())
		}
	}
	if w.IndexBytes() <= 0 {
		t.Fatalf("IndexBytes = %d with 8 cells indexed", w.IndexBytes())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := onDisk()
	if err := os.Truncate(path, full-3); err != nil { // tear the last segment
		t.Fatal(err)
	}
	w, err = OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Size() != onDisk() || w.Size() >= full-3 || w.Len() != 6 {
		t.Fatalf("reopened over a torn tail: Size %d, file %d (was %d), %d cells; want the two whole segments", w.Size(), onDisk(), full, w.Len())
	}
}
