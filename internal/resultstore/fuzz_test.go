package resultstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// The fuzz wall: arbitrary bytes through the block decoder must yield
// typed errors or valid cells — never a panic, never an unbounded
// allocation (every count is validated against remaining input before any
// make). The target is seeded with the golden corpus so the fuzzer starts
// from structurally valid inputs and mutates inward.

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
		cells, err := decodeAll(data, CellOptions{WithHists: true})
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
