package resultstore

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"dnc/internal/stats"
)

// randCell builds a random cell over a small tag universe with a random
// subset of metric columns.
func randCell(rng *rand.Rand) Cell {
	c := Cell{
		Workload: fmt.Sprintf("w%d", rng.Intn(3)),
		Design:   fmt.Sprintf("d%d", rng.Intn(3)),
		Mode:     []string{"fixed", "variable"}[rng.Intn(2)],
		Cores:    1 + rng.Intn(32),
		Warm:     uint64(rng.Intn(1_000_000)),
		Measure:  uint64(rng.Intn(1_000_000)),
		Seed:     rng.Int63n(1000) - 500,
		Metrics:  map[string]uint64{},
	}
	for _, name := range []string{"m.Cycles", "m.Retired", "m.DemandMisses", "llc.InstHits", "noc.flits"} {
		if rng.Intn(4) > 0 {
			c.Metrics[name] = rng.Uint64() >> uint(rng.Intn(40))
		}
	}
	if rng.Intn(2) == 0 {
		nb := 1 + rng.Intn(8)
		h := Hist{Name: fmt.Sprintf("h%d", rng.Intn(2)), N: rng.Uint64() >> 40,
			Sum: rng.Uint64() >> 30, Min: uint64(rng.Intn(100)), Max: uint64(rng.Intn(1000))}
		for b := 0; b < nb; b++ {
			h.Bounds = append(h.Bounds, rng.Uint64()>>uint(30+rng.Intn(30)))
			h.Counts = append(h.Counts, uint64(rng.Intn(1000)))
		}
		h.Counts = append(h.Counts, uint64(rng.Intn(1000)))
		c.Hists = append(c.Hists, h)
	}
	return c
}

// TestPropSegmentRoundTrip: random cell batches round-trip exactly through
// a full segment.
func TestPropSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		cells := make([]Cell, rng.Intn(30)+1)
		for i := range cells {
			cells[i] = randCell(rng)
		}
		// Duplicate keys are legal at the segment layer (the Writer dedups);
		// keep them to exercise repeated tags.
		got, err := decodeSegment(encodeSegment(cells), CellOptions{WithHists: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(cells) {
			t.Fatalf("trial %d: %d cells, want %d", trial, len(got), len(cells))
		}
		for i := range cells {
			want := cells[i]
			if len(want.Metrics) == 0 {
				want.Metrics = map[string]uint64{}
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("trial %d cell %d:\ngot  %+v\nwant %+v", trial, i, got[i], want)
			}
		}
	}
}

// TestPropDictionaryPermutationInvariance: the dictionary is sorted, so
// reordering which cells introduce which tags must not change the
// segment's dictionary bytes — and re-encoding a decoded segment must be
// byte-identical (canonical encoding).
func TestPropDictionaryPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		cells := make([]Cell, 12)
		for i := range cells {
			cells[i] = randCell(rng)
		}
		perm := rng.Perm(len(cells))
		permuted := make([]Cell, len(cells))
		for i, p := range perm {
			permuted[i] = cells[p]
		}
		// Same cell *set*, different order: the dictionaries must be
		// identical even though the column bytes differ.
		dictA := segmentDict(t, encodeSegment(cells))
		dictB := segmentDict(t, encodeSegment(permuted))
		if !reflect.DeepEqual(dictA, dictB) {
			t.Fatalf("trial %d: dictionary depends on cell order:\n%v\n%v", trial, dictA, dictB)
		}

		// Canonical re-encode: decode → encode reproduces the exact bytes.
		payload := encodeSegment(cells)
		decoded, err := decodeSegment(payload, CellOptions{WithHists: true})
		if err != nil {
			t.Fatal(err)
		}
		if re := encodeSegment(decoded); !reflect.DeepEqual(re, payload) {
			t.Fatalf("trial %d: re-encoding a decoded segment changed the bytes", trial)
		}
	}
}

// segmentDict decodes just the dictionary off the front of a segment.
func segmentDict(t *testing.T, payload []byte) []string {
	t.Helper()
	r := &byteReader{buf: payload}
	n := r.count(1)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		l := r.uvarint()
		out = append(out, string(r.take(int(l))))
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	return out
}

// propQueries is every tag filter the small tag universe of randCell admits
// (any, each single tag, a pair, a tag nothing carries — per field), crossed
// with a seed filter and with metrics that are always present (ipc), present
// on three cells in four (so most filters hit an absent value and the rest
// exercise the presence bitmap) and never present.
func propQueries(seeds []int64) []Query {
	workloads := [][]string{nil, {"w0"}, {"w1"}, {"w2"}, {"w0", "w2"}, {"w-none"}}
	designs := [][]string{nil, {"d0"}, {"d1"}, {"d2"}, {"d2", "d1"}, {"d-none"}}
	var out []Query
	for _, metric := range []string{MetricIPC, "m.Retired", "m.DemandMisses", "noc.flits", "no.such"} {
		for _, w := range workloads {
			for _, d := range designs {
				for _, sd := range [][]int64{nil, seeds} {
					out = append(out, Query{Workloads: w, Designs: d, Seeds: sd, Metric: metric})
				}
			}
		}
	}
	return out
}

// sameAnswer requires two scans to agree exactly: the same groups with the
// same floats (reflect.DeepEqual on float64 is ==), or the same error.
func sameAnswer(t *testing.T, what string, q Query, got []Group, gotErr error, want []Group, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s %+v: error %v, reference %v", what, q, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %+v:\nscan      %+v\nreference %+v", what, q, got, want)
	}
}

// TestPropScanMatchesNaiveReference: the three ways to answer a query —
// the Writer's in-memory index (sealed + pending cells), a file scan, and a
// naive reference reducing decoded cells with the same float operations in
// the same order — agree exactly, on every tag filter, on absent metrics, on
// duplicate keys (dropped by the Writer, counted in a file that holds them)
// and with the Writer reopened at every segment boundary.
func TestPropScanMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	answered, refused := map[string]int{}, map[string]int{} // per metric: non-empty answers, absent-value errors
	for trial := 0; trial < 12; trial++ {
		cells := make([]Cell, rng.Intn(40)+5)
		for i := range cells {
			cells[i] = randCell(rng)
			cells[i].Metrics["m.Cycles"] = uint64(rng.Intn(1000) + 1)
			if rng.Intn(10) == 0 {
				cells[i].Metrics["m.Cycles"] = 0 // reads as IPC 0
			}
			cells[i].Metrics["m.Retired"] = uint64(rng.Intn(10000))
		}
		queries := propQueries([]int64{cells[0].Seed, cells[1].Seed})

		// A marshalled file keeps duplicate keys; every reader of it counts them.
		withDups := append(append([]Cell{}, cells...), cells[0], cells[len(cells)/2])
		r, err := NewReader(Marshal(withDups))
		if err != nil {
			t.Fatal(err)
		}
		whole, err := r.buildIndex(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			want, wantErr := naiveScan(withDups, q)
			got, err := Scan(r, q)
			sameAnswer(t, "file scan", q, got, err, want, wantErr)
			if err != nil {
				refused[q.Metric]++
			} else if len(got) > 0 {
				answered[q.Metric]++
			}
			got, err = whole.scan(q)
			sameAnswer(t, "whole-file index", q, got, err, want, wantErr)
		}

		// The same cells through a Writer sealing every 7: reopened at each
		// boundary, so the index is part recovered from segments, part
		// appended, and the tail is pending.
		path := filepath.Join(t.TempDir(), "s.dncr")
		open := func() *Writer {
			w, err := OpenWriter(path)
			if err != nil {
				t.Fatal(err)
			}
			w.perSeg = 7
			return w
		}
		w := open()
		check := func(held int) {
			t.Helper()
			sealed := held - len(w.pending)
			fr, err := OpenReader(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				want, wantErr := naiveScan(cells[:held], q)
				got, err := w.Scan(q)
				sameAnswer(t, fmt.Sprintf("writer index (%d sealed + %d pending)", sealed, held-sealed), q, got, err, want, wantErr)
				want, wantErr = naiveScan(cells[:sealed], q)
				got, err = Scan(fr, q)
				sameAnswer(t, fmt.Sprintf("sealed file (%d cells)", sealed), q, got, err, want, wantErr)
			}
		}
		for i := range cells {
			if ok, err := w.Append(cells[i]); err != nil || !ok {
				t.Fatalf("trial %d: Append(%d) = (%v, %v)", trial, i, ok, err)
			}
			// A second cell under a held key is dropped, whatever it carries.
			dup := cells[rng.Intn(i+1)]
			dup.Metrics = map[string]uint64{"m.Cycles": 1, "m.Retired": 1 << 40}
			if ok, err := w.Append(dup); err != nil || ok {
				t.Fatalf("trial %d: duplicate Append = (%v, %v), want (false, nil)", trial, ok, err)
			}
			if len(w.pending) == 0 {
				check(i + 1)
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				w = open()
				check(i + 1)
			}
		}
		check(len(cells))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// The corpus must reach both sides of the presence bitmap.
	if answered[MetricIPC] == 0 || answered["m.DemandMisses"] == 0 || refused["m.DemandMisses"] == 0 ||
		refused["no.such"] == 0 || answered["no.such"] != 0 {
		t.Fatalf("corpus too narrow: answered %v, refused %v", answered, refused)
	}
}

// cellMetric resolves a metric name against one decoded cell — the
// reference model's value path.
func cellMetric(c *Cell, name string) (float64, bool) {
	if name == MetricIPC {
		cycles, ok := c.Metrics["m.Cycles"]
		if !ok || cycles == 0 {
			return 0, ok
		}
		retired, ok := c.Metrics["m.Retired"]
		if !ok {
			return 0, false
		}
		return float64(retired) / float64(cycles), true
	}
	v, ok := c.Metrics[name]
	return float64(v), ok
}

// naiveScan is the reference model: straight loops over the decoded cells,
// each group's values reduced by stats.Summarize, failing on the first
// matching cell that lacks the metric.
func naiveScan(cells []Cell, q Query) ([]Group, error) {
	type key struct{ w, d string }
	vals := map[key][]float64{}
	var order []key
	for i := range cells {
		c := &cells[i]
		if !matchStr(q.Workloads, c.Workload) || !matchStr(q.Designs, c.Design) {
			continue
		}
		seedOK := len(q.Seeds) == 0
		for _, s := range q.Seeds {
			seedOK = seedOK || s == c.Seed
		}
		if !seedOK {
			continue
		}
		v, ok := cellMetric(c, q.Metric)
		if !ok {
			return nil, fmt.Errorf("resultstore: cell %s has no metric %q", c.Key(), q.Metric)
		}
		k := key{c.Workload, c.Design}
		if _, seen := vals[k]; !seen {
			order = append(order, k)
		}
		vals[k] = append(vals[k], v)
	}
	var out []Group
	for _, k := range order {
		s := stats.Summarize(vals[k])
		out = append(out, Group{Workload: k.w, Design: k.d, N: s.N, Mean: s.Mean, CI95: s.CI95, Min: s.Min, Max: s.Max})
	}
	sortGroups(out)
	if out == nil {
		out = []Group{}
	}
	return out, nil
}

func sortGroups(gs []Group) {
	for i := 1; i < len(gs); i++ {
		for j := i; j > 0; j-- {
			a, b := &gs[j-1], &gs[j]
			if a.Workload < b.Workload || (a.Workload == b.Workload && a.Design <= b.Design) {
				break
			}
			gs[j-1], gs[j] = gs[j], gs[j-1]
		}
	}
}
