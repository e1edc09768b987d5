package resultstore

import (
	"fmt"
	"io"
	"os"
)

// DefaultSegmentCells is how many appended cells the Writer batches into
// one segment block before flushing. Bigger segments compress better (one
// dictionary, longer delta runs) but widen the window a crash can lose;
// the default keeps a killed sweep's loss to at most one batch, and Flush
// or Close seal whatever is pending.
const DefaultSegmentCells = 256

// Writer appends cells to a store file. Appends are batched into segment
// blocks; each flushed block is fsynced, so once Flush returns the cells
// in it survive any crash. Reopening an existing store validates every
// block and truncates a torn tail (a block half-written when the process
// died) — the preceding, checksummed blocks are untouched, which is the
// store's crash-recovery contract.
//
// The Writer also tracks every cell key already in the file, so an
// at-least-once producer (the dncserved admission path, a resumed sweep)
// can make appends idempotent with Has — and keeps an index over every cell
// it holds, sealed or pending, so Scan answers aggregate queries from
// memory: no file read, and never a seal (a read does not write).
type Writer struct {
	f        *os.File
	pending  []Cell
	keys     map[string]bool
	ix       *index
	size     int64 // bytes of header plus sealed blocks
	perSeg   int
	writeErr error
}

// OpenWriter opens path for appending, creating it (with a fresh header)
// if absent. An existing file is validated block by block: a torn or
// corrupt tail is truncated away and its cells' keys forgotten, so they
// re-append cleanly.
func OpenWriter(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultstore: opening %s: %w", path, err)
	}
	w := &Writer{f: f, keys: make(map[string]bool), ix: newIndex(), perSeg: DefaultSegmentCells}
	if err := w.recover(path); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("resultstore: seeking to end of %s: %w", path, err)
	}
	return w, nil
}

// recover validates the existing file, indexes its cells and records their
// keys, and truncates everything after the last valid block.
func (w *Writer) recover(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("resultstore: reading %s: %w", path, err)
	}
	w.size = headerSize
	if len(data) == 0 {
		if _, err := w.f.Write(appendHeader(nil)); err != nil {
			return fmt.Errorf("resultstore: writing header: %w", err)
		}
		return w.sync()
	}
	off, err := checkHeader(data)
	if err != nil {
		// A file too short to hold a header is a crash inside the very
		// first write; start it over. A wrong magic or version is a real
		// error — truncating someone else's file would destroy data.
		if len(data) < headerSize {
			if err := w.f.Truncate(0); err != nil {
				return fmt.Errorf("resultstore: truncating %s: %w", path, err)
			}
			if _, err := w.f.WriteAt(appendHeader(nil), 0); err != nil {
				return fmt.Errorf("resultstore: writing header: %w", err)
			}
			return w.sync()
		}
		return err
	}
	valid := off
	for off < len(data) {
		kind, payload, next, err := nextBlock(data, off)
		if err != nil {
			break // torn tail: keep everything before it
		}
		if kind == blockSegment {
			first := w.ix.n
			if err := w.ix.addSegment(payload, nil); err != nil {
				break
			}
			for i := first; i < w.ix.n; i++ {
				w.keys[w.ix.key(i)] = true
			}
		}
		valid, off = next, next
	}
	w.size = int64(valid)
	if valid < len(data) {
		if err := w.f.Truncate(int64(valid)); err != nil {
			return fmt.Errorf("resultstore: truncating torn tail of %s: %w", path, err)
		}
		return w.sync()
	}
	return nil
}

// Has reports whether a cell with this key is already durable in the file
// or pending in the current batch.
func (w *Writer) Has(key string) bool { return w.keys[key] }

// Len reports how many cells the file plus the pending batch hold.
func (w *Writer) Len() int { return len(w.keys) }

// Size is the file's size in bytes: the header plus every sealed segment,
// not the pending batch.
func (w *Writer) Size() int64 { return w.size }

// IndexCells and IndexBytes are how many cells the query index covers
// (always Len, or Append has a bug) and the memory its columns hold.
func (w *Writer) IndexCells() int { return w.ix.n }
func (w *Writer) IndexBytes() int { return w.ix.bytes() }

// Scan answers an aggregate query over every cell the Writer holds, the
// pending batch included, from the in-memory index. It touches neither the
// file nor the Writer's state, so callers may run Scans concurrently with
// each other (not with Append, Flush or Close).
func (w *Writer) Scan(q Query) ([]Group, error) { return w.ix.scan(q) }

// Append adds one cell, flushing a full batch. Duplicate keys are dropped
// (first insert wins, matching the service cache's admission rule); the
// return reports whether the cell was accepted. The cell enters the key set
// and the index before the file is touched, so after a write failure —
// sticky, reported by this and every later Append — Scan and Has still
// account for every accepted cell; only the file stops growing.
func (w *Writer) Append(c Cell) (bool, error) {
	key := c.Key()
	if w.keys[key] {
		return false, nil
	}
	w.keys[key] = true
	w.ix.add(&c)
	if w.writeErr != nil {
		return true, w.writeErr
	}
	w.pending = append(w.pending, c)
	if len(w.pending) >= w.perSeg {
		return true, w.Flush()
	}
	return true, nil
}

// Flush seals the pending batch into one fsynced segment block. A write
// failure is sticky: the Writer refuses further appends, because a partial
// block in the middle of the file would orphan everything after it.
func (w *Writer) Flush() error {
	if w.writeErr != nil {
		return w.writeErr
	}
	if len(w.pending) == 0 {
		return nil
	}
	block := appendBlock(nil, blockSegment, encodeSegment(w.pending))
	if _, err := w.f.Write(block); err != nil {
		w.writeErr = fmt.Errorf("resultstore: appending segment: %w", err)
		return w.writeErr
	}
	if err := w.sync(); err != nil {
		w.writeErr = err
		return w.writeErr
	}
	w.size += int64(len(block))
	w.pending = w.pending[:0]
	return nil
}

func (w *Writer) sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("resultstore: fsync: %w", err)
	}
	return nil
}

// Close flushes the pending batch and closes the file.
func (w *Writer) Close() error {
	flushErr := w.Flush()
	closeErr := w.f.Close()
	if flushErr != nil {
		return flushErr
	}
	if closeErr != nil {
		return fmt.Errorf("resultstore: closing store: %w", closeErr)
	}
	return nil
}

// Marshal encodes cells as one complete in-memory store (header plus a
// single segment block) — the building block for compaction, export, and
// the golden fixtures.
func Marshal(cells []Cell) []byte {
	return appendBlock(appendHeader(nil), blockSegment, encodeSegment(cells))
}

// Verify re-validates a marshalled store without decoding cell values:
// header framing plus every block's length and CRC32. It returns the
// number of valid blocks. This is `dncstore verify` — the cheap integrity
// sweep an operator runs against a store on disk.
func Verify(data []byte) (blocks int, err error) {
	off, err := checkHeader(data)
	if err != nil {
		return 0, err
	}
	for off < len(data) {
		_, _, next, err := nextBlock(data, off)
		if err != nil {
			return blocks, err
		}
		blocks++
		off = next
	}
	return blocks, nil
}

// blockSizes returns the framed size of every block (diagnostics for
// `dncstore info`).
func blockSizes(data []byte) []int {
	off, err := checkHeader(data)
	if err != nil {
		return nil
	}
	var sizes []int
	for off < len(data) {
		_, _, next, err := nextBlock(data, off)
		if err != nil {
			return sizes
		}
		sizes = append(sizes, next-off)
		off = next
	}
	return sizes
}
