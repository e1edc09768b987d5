package resultstore

import (
	"fmt"
	"math/rand"
	"testing"
)

// The gated hot-path benchmarks (scripts/benchdiff.sh vs
// BENCH_resultstore.json) are the scans: one /v1/query over the in-memory
// index and the same question asked of the file, at 320 and 10K cells. The
// segment codec benchmarks are not gated.

func benchCells() []Cell {
	rng := rand.New(rand.NewSource(19))
	cells := make([]Cell, 64)
	for i := range cells {
		cells[i] = testCell(i)
		cells[i].Metrics["m.Retired"] = rng.Uint64() >> 30
	}
	return cells
}

func BenchmarkSegmentEncode(b *testing.B) {
	cells := benchCells()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeSegment(cells)
	}
}

func BenchmarkSegmentDecode(b *testing.B) {
	payload := encodeSegment(benchCells())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeSegment(payload, CellOptions{WithHists: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// scanCells builds n service-shaped cells: the 48 scalar columns an
// admitted result carries, 2 workloads × 4 designs, seeds varying.
func scanCells(n int) []Cell {
	rng := rand.New(rand.NewSource(37))
	cells := make([]Cell, n)
	for i := range cells {
		c := Cell{
			Workload: []string{"Web-Frontend", "Web-Search"}[i%2],
			Design:   []string{"baseline", "NL", "SN4L", "SN4L+Dis+BTB"}[i/2%4],
			Mode:     "fixed", Cores: 2, Warm: 20_000, Measure: 20_000, Seed: int64(i / 8),
			Metrics: map[string]uint64{"m.Cycles": 20_000, "m.Retired": 30_000 + rng.Uint64()%4096},
		}
		for m := 0; m < 46; m++ {
			c.Metrics[fmt.Sprintf("ctr.c%02d", m)] = rng.Uint64() % 100_000
		}
		cells[i] = c
	}
	return cells
}

// benchScanIndex is one /v1/query as dncserved answers it: an aggregation
// over the Writer's resident index. Gated on allocs/op.
func benchScanIndex(b *testing.B, n int) {
	ix := newIndex()
	cells := scanCells(n)
	for i := range cells {
		ix.add(&cells[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.scan(Query{Metric: MetricIPC}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScanFile is the same question asked of the file (dncstore query,
// the benchmark's resultstore.scan_ms): every 256-cell segment decoded into
// an index of the two columns ipc reads, then aggregated.
func benchScanFile(b *testing.B, n int) {
	cells := scanCells(n)
	data := appendHeader(nil)
	for len(cells) > 0 {
		k := min(len(cells), DefaultSegmentCells)
		data = appendBlock(data, blockSegment, encodeSegment(cells[:k]))
		cells = cells[k:]
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(data)
		if err == nil {
			_, err = Scan(r, Query{Metric: MetricIPC})
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanIndex320(b *testing.B) { benchScanIndex(b, 320) }
func BenchmarkScanIndex10K(b *testing.B) { benchScanIndex(b, 10_000) }
func BenchmarkScanFile320(b *testing.B)  { benchScanFile(b, 320) }
func BenchmarkScanFile10K(b *testing.B)  { benchScanFile(b, 10_000) }
