package resultstore

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The fuzz wall: arbitrary bytes through the block and series decoders
// must yield typed errors or valid cells — never a panic, never an
// unbounded allocation (every count is validated against remaining input
// before any make). Both targets are seeded with the golden corpus so the
// fuzzer starts from structurally valid inputs and mutates inward.

func fuzzSeedStores(f *testing.F) {
	f.Helper()
	cells := goldenCells()
	f.Add(Marshal(cells))
	f.Add(Marshal(cells[:1]))
	f.Add(Marshal(nil))
	f.Add(appendHeader(nil))
	// A store with an unknown auxiliary block kind (forward compat path).
	withAux := appendBlock(Marshal(cells[:2]), 0x7F, []byte("future block"))
	f.Add(withAux)
	if golden, err := os.ReadFile(filepath.Join("testdata", "v1_basic.dncr")); err == nil {
		f.Add(golden)
	}
}

func FuzzBlockDecode(f *testing.F) {
	fuzzSeedStores(f)
	f.Add([]byte{})
	f.Add([]byte("DNCR"))
	f.Add(encodeSegment(goldenCells()))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Cap the fuzzer's input so a giant random buffer can't make the
		// decoder look slow for reasons unrelated to format handling.
		if len(data) > 1<<20 {
			return
		}
		indexAgreesWithCells(t, data)
		// The same bytes as one segment's payload under a valid frame:
		// mutations reach the column decoders instead of dying at the CRC.
		indexAgreesWithCells(t, appendBlock(appendHeader(nil), blockSegment, data))
		cells, err := decodeAll(data, CellOptions{WithHists: true, WithSeries: true})
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) &&
				!errors.Is(err, ErrVersion) && !errors.Is(err, ErrChecksum) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Valid input: the filtered decode paths must agree with the full
		// one, and what decoded must re-encode without panicking.
		scalar, err := decodeAll(data, CellOptions{})
		if err != nil {
			t.Fatalf("full decode ok but scalar-only failed: %v", err)
		}
		if len(scalar) != len(cells) {
			t.Fatalf("section skipping changed cell count: %d vs %d", len(scalar), len(cells))
		}
		if len(cells) > 0 {
			_ = Marshal(cells)
		}
		if _, err := Verify(data); err != nil {
			t.Fatalf("decode ok but Verify failed: %v", err)
		}
	})
}

// indexAgreesWithCells is the differential half of FuzzBlockDecode: the
// index decoder (what Writer.recover and Scan run) accepts exactly the
// stores the scalar per-cell decoder accepts, and holds the same cells —
// same keys in the same order, same answer (or refusal) for a query.
func indexAgreesWithCells(t *testing.T, data []byte) {
	cells, cellsErr := decodeAll(data, CellOptions{})
	ix, ixErr := (&Reader{data: data}).buildIndex(nil)
	if (cellsErr == nil) != (ixErr == nil) {
		t.Fatalf("per-cell decode: %v, index decode: %v", cellsErr, ixErr)
	}
	if ixErr != nil {
		if !errors.Is(ixErr, ErrTruncated) && !errors.Is(ixErr, ErrCorrupt) &&
			!errors.Is(ixErr, ErrVersion) && !errors.Is(ixErr, ErrChecksum) {
			t.Fatalf("untyped index decode error: %v", ixErr)
		}
		return
	}
	if ix.n != len(cells) {
		t.Fatalf("index holds %d cells, per-cell decode %d", ix.n, len(cells))
	}
	for i := range cells {
		if got, want := ix.key(i), cells[i].Key(); got != want {
			t.Fatalf("cell %d: index key %q, decoded key %q", i, got, want)
		}
	}
	for _, metric := range []string{MetricIPC, "m.Retired"} {
		q := Query{Metric: metric}
		want, wantErr := naiveScan(cells, q)
		got, err := ix.scan(q)
		sameAnswer(t, "index", q, got, err, want, wantErr)
		got, err = Scan(&Reader{data: data}, q)
		sameAnswer(t, "file scan", q, got, err, want, wantErr)
	}
}

func FuzzSeriesDecode(f *testing.F) {
	f.Add(encodeSeriesBlob(nil, nil))
	f.Add(encodeSeriesBlob([]uint64{256}, []float64{1.5}))
	f.Add(encodeSeriesBlob(
		[]uint64{256, 512, 768, 1024, 1280},
		[]float64{1.5, 1.5, 1.25, 1.75, math.Inf(1)}))
	f.Add(encodeSeriesBlob([]uint64{100, 50, ^uint64(0), 0}, []float64{0, -0.0, 1e308, math.NaN()}))
	f.Add([]byte{})
	f.Add([]byte{0x05})
	f.Fuzz(func(t *testing.T, blob []byte) {
		if len(blob) > 1<<20 {
			return
		}
		cycles, values, err := decodeSeriesBlob(blob)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped series decode error: %v", err)
			}
			return
		}
		if len(cycles) != len(values) {
			t.Fatalf("decoded %d cycles but %d values", len(cycles), len(values))
		}
		// Decoded series must survive a round trip: re-encode, decode, and
		// get the identical points back (the blob itself need not be
		// canonical — a fuzzer can pad windows — but the data must be).
		cyc2, val2, err := decodeSeriesBlob(encodeSeriesBlob(cycles, values))
		if err != nil {
			t.Fatalf("re-encode of decoded series failed: %v", err)
		}
		for i := range cycles {
			if cyc2[i] != cycles[i] || math.Float64bits(val2[i]) != math.Float64bits(values[i]) {
				t.Fatalf("re-encode round trip diverged at point %d", i)
			}
		}
	})
}
