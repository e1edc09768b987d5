package resultstore

import (
	"encoding/binary"
	"hash/crc32"
	"sort"
)

// zigzag maps signed deltas onto small unsigned varints (0, -1, 1, -2, …).
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

func appendZvarint(dst []byte, v int64) []byte { return binary.AppendUvarint(dst, zigzag(v)) }

// appendBlock frames a payload as one store block: kind, length, payload,
// CRC32 over all three. Blocks are the unit of torn-tail detection.
func appendBlock(dst []byte, kind uint8, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// appendHeader writes the file header.
func appendHeader(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, Magic)
	dst = binary.LittleEndian.AppendUint16(dst, Version)
	return binary.LittleEndian.AppendUint16(dst, 0) // flags
}

// encodeSegment encodes a batch of cells as one segment payload. The
// encoding is canonical — dictionary and metric columns are sorted — so the
// same cells in the same order always produce identical bytes.
func encodeSegment(cells []Cell) []byte {
	// Dictionary: every string the segment references, sorted. Sorting makes
	// the dictionary (and the indices derived from it) independent of the
	// order tags were first seen.
	seen := map[string]bool{}
	for i := range cells {
		c := &cells[i]
		seen[c.Workload], seen[c.Design], seen[c.Mode] = true, true, true
		for name := range c.Metrics {
			seen[name] = true
		}
		for _, h := range c.Hists {
			seen[h.Name] = true
		}
	}
	dict := make([]string, 0, len(seen))
	for s := range seen {
		dict = append(dict, s)
	}
	sort.Strings(dict)
	idx := make(map[string]uint64, len(dict))
	for i, s := range dict {
		idx[s] = uint64(i)
	}

	out := appendUvarint(nil, uint64(len(dict)))
	for _, s := range dict {
		out = appendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	out = appendUvarint(out, uint64(len(cells)))

	// Identity columns, one value per cell.
	for i := range cells {
		out = appendUvarint(out, idx[cells[i].Workload])
	}
	for i := range cells {
		out = appendUvarint(out, idx[cells[i].Design])
	}
	for i := range cells {
		out = appendUvarint(out, idx[cells[i].Mode])
	}
	for i := range cells {
		out = appendUvarint(out, uint64(cells[i].Cores))
	}
	for i := range cells {
		out = appendUvarint(out, cells[i].Warm)
	}
	for i := range cells {
		out = appendUvarint(out, cells[i].Measure)
	}
	for i := range cells {
		out = appendZvarint(out, cells[i].Seed)
	}

	// Metric columns: sorted union of names; per metric a presence bitmap
	// and, for present cells, the zigzag delta from the previous present
	// cell's value. Deltas use uint64 wraparound, so the round trip is exact
	// for any values while similar cells compress to a byte or two per
	// counter.
	names := map[string]bool{}
	for i := range cells {
		for n := range cells[i].Metrics {
			names[n] = true
		}
	}
	cols := make([]string, 0, len(names))
	for n := range names {
		cols = append(cols, n)
	}
	sort.Strings(cols)

	metrics := appendUvarint(nil, uint64(len(cols)))
	bitmap := make([]byte, (len(cells)+7)/8)
	for _, name := range cols {
		metrics = appendUvarint(metrics, idx[name])
		for i := range bitmap {
			bitmap[i] = 0
		}
		for i := range cells {
			if _, ok := cells[i].Metrics[name]; ok {
				bitmap[i/8] |= 1 << (i % 8)
			}
		}
		metrics = append(metrics, bitmap...)
		var prev uint64
		for i := range cells {
			v, ok := cells[i].Metrics[name]
			if !ok {
				continue
			}
			metrics = appendZvarint(metrics, int64(v-prev))
			prev = v
		}
	}
	out = appendUvarint(out, uint64(len(metrics)))
	out = append(out, metrics...)

	// Histogram section, row-wise per cell (histograms are few and small;
	// rows keep the encoder simple and the section skippable).
	var hists []byte
	for i := range cells {
		hists = appendUvarint(hists, uint64(len(cells[i].Hists)))
		for _, h := range cells[i].Hists {
			hists = appendUvarint(hists, idx[h.Name])
			hists = appendUvarint(hists, uint64(len(h.Bounds)))
			prev := int64(0)
			for _, b := range h.Bounds {
				hists = appendZvarint(hists, int64(b)-prev)
				prev = int64(b)
			}
			hists = appendUvarint(hists, uint64(len(h.Counts)))
			for _, c := range h.Counts {
				hists = appendUvarint(hists, c)
			}
			hists = appendUvarint(hists, h.N)
			hists = appendUvarint(hists, h.Sum)
			hists = appendUvarint(hists, h.Min)
			hists = appendUvarint(hists, h.Max)
		}
	}
	out = appendUvarint(out, uint64(len(hists)))
	out = append(out, hists...)

	// Series section: kept in the v1 layout with a zero count per cell, so
	// every reader of the format frames it as before.
	out = appendUvarint(out, uint64(len(cells)))
	for range cells {
		out = append(out, 0)
	}
	return out
}
