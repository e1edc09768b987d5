package resultstore

import (
	"fmt"
	"math/rand"
	"testing"
)

// The gated hot-path benchmarks (scripts/benchdiff.sh vs
// BENCH_resultstore.json) are the flat ones: a fixed 4096-point mixed
// workload through the series codec and a 64-cell segment through the
// store codec. The per-shape sub-benchmarks feed the appendix tables in
// docs/RESULTSTORE_BENCH.md and are not gated — shapes compress
// differently by design, and the gate only needs to catch a lost fast
// path, not re-litigate the format.

func benchSeries(n int) ([]uint64, []float64) {
	rng := rand.New(rand.NewSource(17))
	cycles, values := make([]uint64, n), make([]float64, n)
	for i := range cycles {
		cycles[i] = uint64(i+1) * 256
		switch {
		case i%7 == 0: // occasional burst
			values[i] = 50 + float64(rng.Intn(100))
		default: // quantized gauge drift
			values[i] = 1 + float64(rng.Intn(64))/64
		}
	}
	return cycles, values
}

func BenchmarkSeriesEncode(b *testing.B) {
	cycles, values := benchSeries(4096)
	blob := encodeSeriesBlob(cycles, values)
	b.SetBytes(int64(len(cycles) * 16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeSeriesBlob(cycles, values)
	}
	// After the loop: ResetTimer discards metrics reported before it.
	b.ReportMetric(float64(len(blob))/float64(len(cycles)), "bytes/point")
}

func BenchmarkSeriesDecode(b *testing.B) {
	cycles, values := benchSeries(4096)
	blob := encodeSeriesBlob(cycles, values)
	b.SetBytes(int64(len(cycles) * 16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeSeriesBlob(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCells() []Cell {
	rng := rand.New(rand.NewSource(19))
	cells := make([]Cell, 64)
	for i := range cells {
		cells[i] = testCell(i)
		cy, va := benchSeries(256)
		cells[i].Series = []Series{{Name: "series.ipc", Cycles: cy, Values: va}}
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
		if _, err := decodeSegment(payload, CellOptions{WithHists: true, WithSeries: true}); err != nil {
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

// Per-shape appendix benchmarks (docs/RESULTSTORE_BENCH.md).
func BenchmarkSeriesEncodeShapes(b *testing.B) {
	for _, g := range seriesGens {
		b.Run(g.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(29))
			cycles, values := g.gen(rng, 4096)
			blob := encodeSeriesBlob(cycles, values)
			b.SetBytes(int64(len(cycles) * 16))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				encodeSeriesBlob(cycles, values)
			}
			b.ReportMetric(float64(len(blob))/float64(len(cycles)), "bytes/point")
		})
	}
}

func BenchmarkSeriesDecodeShapes(b *testing.B) {
	for _, g := range seriesGens {
		b.Run(g.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(29))
			cycles, values := g.gen(rng, 4096)
			blob := encodeSeriesBlob(cycles, values)
			b.SetBytes(int64(len(cycles) * 16))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := decodeSeriesBlob(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
