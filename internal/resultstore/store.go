// Package resultstore implements the columnar, checksummed binary store for
// sweep results.
//
// A store file is the durable, queryable form of a sweep: one row ("cell")
// per simulated design × workload × seed point, holding the cell's identity
// tags, its scalar metric counters and its histograms. The point of the
// format is that cross-sweep aggregate questions ("mean IPC and
// CI for every design × workload") are answered by scanning the file, never
// by re-simulation.
//
// # File layout
//
//	header  magic u32 "DNCR" | version u16 | flags u16
//	blocks  kind u8 | payloadLen u32 | payload | crc32 u32
//
// The CRC32 (IEEE) covers kind, length, and payload, so every block is
// independently verifiable and an append interrupted by a crash leaves a
// torn tail that checksum validation detects; the Writer truncates it on
// reopen and the admitted cells before it survive untouched (the
// checkpoint-package idiom, applied to an append-only multi-block file).
//
// # Segment payload (block kind 1)
//
// Cells are batched into segments. A segment is columnar:
//
//	dict     uvarint count, then count × (uvarint len | bytes), sorted
//	ncells   uvarint
//	id columns (one value per cell, in cell order):
//	  workload/design/mode  dictionary indices, uvarint
//	  cores/warm/measure    uvarint
//	  seed                  zigzag varint
//	metrics section  u32 byte length, then per metric (sorted by name):
//	  name index uvarint | presence bitmap | per present cell the
//	  zigzag varint delta from the previous present cell's value
//	hists section    u32 byte length, then per cell, row-wise:
//	  count, then per histogram: name index, bounds (first absolute,
//	  then zigzag deltas), counts, n/sum/min/max — all varint-packed
//	series section   u32 byte length, then per cell a count (always 0
//	  when written now). Files written before the time-series were
//	  removed hold per series a name index | u32 blob length | blob; a
//	  reader checks the section's length against the payload and skips
//	  its content, so those files open and answer every query, with
//	  their series no longer decoded.
//
// The dictionary is sorted and metric names are sorted, so the encoding is
// canonical: the same cells in the same order produce identical bytes
// regardless of construction order (the byte-stability golden test pins
// this). The three length-prefixed sections let a scalar-only scan skip
// histogram and series bytes entirely, and a dictionary that matches no
// query tag lets the reader skip the whole segment without decoding a
// single column ("predicate push-down").
//
// # Queries
//
// An aggregate query never materializes cells. Scan decodes a file's
// segments straight into an index — column-major, dictionary-encoded tags,
// one dense value column plus presence bitmap per scalar metric, only the
// columns the metric reads — and aggregates over that; a Writer keeps such
// an index over every cell it holds, sealed or pending, and answers
// Writer.Scan from memory. The per-cell form (a map of metrics per cell)
// exists only behind Reader.Cells: export, compaction, tests.
//
// Decoding is defensive in the checkpoint-package style: every read is
// bounds-checked, every count and length is validated against the remaining
// input before allocation, and malformed input yields a typed error
// (ErrTruncated, ErrCorrupt, ErrVersion, ErrChecksum) — never a panic. The
// FuzzBlockDecode fuzz target keeps it that way.
package resultstore

import (
	"errors"
	"fmt"
)

// Format constants.
const (
	// Magic identifies a result-store file ("DNCR" little-endian).
	Magic uint32 = 0x52434E44
	// Version is the current format version. v1 is pinned readable forever
	// by the golden cross-version test; any layout change bumps this and
	// adds a decode path, it never rewrites v1.
	Version uint16 = 1

	// headerSize is magic + version + flags.
	headerSize = 8
	// blockOverhead is kind + payload length + CRC32 trailer.
	blockOverhead = 9

	// blockSegment holds a batch of cells in columnar form.
	blockSegment uint8 = 1
)

// Typed decode errors; every decoder failure wraps one of these.
var (
	// ErrTruncated means the input ended before a read completed (including
	// a torn tail block from a crashed append).
	ErrTruncated = errors.New("resultstore: truncated input")
	// ErrCorrupt means structurally invalid input: bad magic, impossible
	// count, dictionary index out of range, non-canonical bitstream.
	ErrCorrupt = errors.New("resultstore: corrupt input")
	// ErrVersion means the file was written by an unsupported format version.
	ErrVersion = errors.New("resultstore: unsupported version")
	// ErrChecksum means a block's CRC32 does not match its content.
	ErrChecksum = errors.New("resultstore: checksum mismatch")
)

// Cell is one sweep point: identity tags plus everything measured. It is
// the row type of the store — Writer.Append takes it, Reader.Cells returns
// it.
type Cell struct {
	Workload string
	Design   string
	Mode     string // "fixed" | "variable" (isa dispatch mode)
	Cores    int
	Warm     uint64 // warm-up cycles
	Measure  uint64 // measurement-window cycles
	Seed     int64

	// Metrics holds the scalar counters as named columns ("m.Retired",
	// "llc.InstHits", "noc.flits", "ctr.<counter>", …; see convert.go for
	// the full naming scheme).
	Metrics map[string]uint64
	// Hists holds the run's histogram snapshots, in the cell's own order.
	Hists []Hist
}

// Hist is a stored histogram: the obs.HistSnapshot shape, owned by this
// package so the wire format cannot drift when obs evolves.
type Hist struct {
	Name   string
	Bounds []uint64
	Counts []uint64
	N      uint64
	Sum    uint64
	Min    uint64
	Max    uint64
}

// Key is the cell's canonical identity, byte-identical to the dncserved
// cache key (workerproto.CellSpec.Key) so the service can correlate store
// rows with cache entries without re-deriving anything.
func (c *Cell) Key() string {
	return fmt.Sprintf("v1|w=%s|d=%s|m=%s|c=%d|warm=%d|meas=%d|seed=%d",
		c.Workload, c.Design, c.Mode, c.Cores, c.Warm, c.Measure, c.Seed)
}
