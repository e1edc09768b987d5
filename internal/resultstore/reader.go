package resultstore

import (
	"fmt"
	"os"
)

// Reader answers queries against a marshalled store. It holds the raw
// bytes and decodes lazily per call, so opening a store is cheap and a
// filtered scan only pays for the segments and sections it touches.
type Reader struct {
	data []byte
}

// NewReader wraps in-memory store bytes, validating the header eagerly so
// an outright wrong file fails at open, not first query.
func NewReader(data []byte) (*Reader, error) {
	if _, err := checkHeader(data); err != nil {
		return nil, err
	}
	return &Reader{data: data}, nil
}

// OpenReader reads and wraps a store file.
func OpenReader(path string) (*Reader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("resultstore: reading %s: %w", path, err)
	}
	r, err := NewReader(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Size returns the store's size in bytes.
func (r *Reader) Size() int { return len(r.data) }

// Verify re-checksums every block.
func (r *Reader) Verify() (blocks int, err error) { return Verify(r.data) }

// Cells decodes every cell matching the options, in file order.
func (r *Reader) Cells(opt CellOptions) ([]Cell, error) {
	return decodeAll(r.data, opt)
}

// buildIndex decodes the store's segments into an index: everything with q
// nil, else what answering q reads. Strict like Cells: a torn tail or
// corrupt block is an error.
func (r *Reader) buildIndex(q *Query) (*index, error) {
	ix := newIndex()
	err := eachSegment(r.data, func(payload []byte) error { return ix.addSegment(payload, q) })
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// BlockSizes returns the framed on-disk size of every valid block, in file
// order — `dncstore info`'s view of how the file is segmented.
func (r *Reader) BlockSizes() []int { return blockSizes(r.data) }
