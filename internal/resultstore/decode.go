package resultstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// byteReader is the sticky-error varint reader behind segment decoding
// (the loading checkpoint.Codec idiom, varint-flavoured). Every read is
// bounds-checked; after the first failure every read returns zero and err
// holds the typed cause.
type byteReader struct {
	buf []byte
	off int
	err error
}

func (r *byteReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *byteReader) remaining() int { return len(r.buf) - r.off }

func (r *byteReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, w := binary.Uvarint(r.buf[r.off:])
	if w <= 0 {
		r.fail(fmt.Errorf("%w: varint at offset %d", errVarint(w), r.off))
		return 0
	}
	r.off += w
	return v
}

func (r *byteReader) zvarint() int64 { return unzigzag(r.uvarint()) }

// errVarint maps binary.Uvarint's failure modes onto the typed errors:
// 0 bytes read means the input ran out, negative means a >64-bit varint.
func errVarint(w int) error {
	if w == 0 {
		return ErrTruncated
	}
	return ErrCorrupt
}

func (r *byteReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.remaining() {
		r.fail(fmt.Errorf("%w: need %d bytes, %d remain", ErrTruncated, n, r.remaining()))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// count reads an element count and validates it against the remaining
// input, assuming each element occupies at least elemMin bytes — the
// allocation guard that keeps a corrupt count from forcing a huge make.
func (r *byteReader) count(elemMin int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if elemMin < 1 {
		elemMin = 1
	}
	if v > uint64(r.remaining()/elemMin) {
		r.fail(fmt.Errorf("%w: element count %d exceeds remaining input", ErrCorrupt, v))
		return 0
	}
	return int(v)
}

// section reads a uvarint length prefix and returns the enclosed bytes.
func (r *byteReader) section(what string) []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.fail(fmt.Errorf("%w: %s section of %d bytes, %d remain", ErrTruncated, what, n, r.remaining()))
		return nil
	}
	return r.take(int(n))
}

// CellOptions selects what Cells decodes and which cells it returns.
// Filters are disjunctive within a field and conjunctive across fields
// (workload ∈ Workloads AND design ∈ Designs AND seed ∈ Seeds); a nil
// slice means "any". Filtering happens before value decoding: a segment
// whose dictionary holds none of the requested tags is skipped whole, and
// the histogram section is skipped as a byte range unless asked for. The
// series section is always skipped (see store.go).
type CellOptions struct {
	Workloads []string
	Designs   []string
	Seeds     []int64
	// WithHists opts in to decoding the histogram section.
	WithHists bool
}

func (o *CellOptions) wantWorkload(w string) bool { return matchStr(o.Workloads, w) }
func (o *CellOptions) wantDesign(d string) bool   { return matchStr(o.Designs, d) }

func (o *CellOptions) wantSeed(s int64) bool { return matchSeed(o.Seeds, s) }

func matchStr(set []string, v string) bool {
	if len(set) == 0 {
		return true
	}
	for _, s := range set {
		if s == v {
			return true
		}
	}
	return false
}

// segScalars is the scalar part of one decoded segment, column-major as it
// lies in the file: the dictionary as byte ranges of the payload, tags as
// validated indices into it, one entry per metric column. It is the one
// place the segment layout is walked; decodeSegment turns it into cells and
// index.addSegment appends it to a query index.
type segScalars struct {
	dict                   [][]byte
	workload, design, mode []uint32
	cores                  []int
	warm, measure          []uint64
	seed                   []int64
	metrics                []segMetric
	// hists is the histogram section, framing checked, not decoded.
	hists []byte
}

// segMetric is one metric column of a segment.
type segMetric struct {
	name   uint32   // dictionary index
	bitmap []byte   // bit i set = cell i carries the metric
	vals   []uint64 // one per cell, 0 where absent; nil if the column was not wanted
}

func (m *segMetric) has(i int) bool { return m.bitmap[i/8]&(1<<(i%8)) != 0 }

// decodeScalars walks one segment payload. Push-down on the dictionary: if
// it holds none of the wanted workloads or none of the wanted designs (nil =
// any), no cell in the segment can match and decodeScalars returns nil
// without reading a column. Every metric column is walked to stay aligned,
// but values are kept only for the names want accepts (nil = all).
func decodeScalars(payload []byte, workloads, designs []string, want func(name []byte) bool) (*segScalars, error) {
	r := &byteReader{buf: payload}
	s := &segScalars{dict: make([][]byte, r.count(1))}
	for i := range s.dict {
		n := r.uvarint()
		if r.err == nil && n > uint64(r.remaining()) {
			r.fail(fmt.Errorf("%w: dictionary string of %d bytes, %d remain", ErrTruncated, n, r.remaining()))
		}
		s.dict[i] = r.take(int(n))
	}
	if r.err != nil {
		return nil, r.err
	}
	if !dictHasAny(s.dict, workloads) || !dictHasAny(s.dict, designs) {
		return nil, nil
	}
	dictIndex := func(r *byteReader, what string) uint32 {
		idx := r.uvarint()
		if r.err == nil && idx >= uint64(len(s.dict)) {
			r.fail(fmt.Errorf("%w: %s dictionary index %d of %d", ErrCorrupt, what, idx, len(s.dict)))
			return 0
		}
		return uint32(idx)
	}

	// Identity columns: id columns cost ≥7 bytes per cell.
	nc := r.count(7)
	tags := func(what string) []uint32 {
		col := make([]uint32, nc)
		for i := range col {
			col[i] = dictIndex(r, what)
		}
		return col
	}
	s.workload, s.design, s.mode = tags("workload"), tags("design"), tags("mode")
	s.cores = make([]int, nc)
	for i := range s.cores {
		s.cores[i] = int(r.uvarint())
	}
	s.warm, s.measure = make([]uint64, nc), make([]uint64, nc)
	for i := range s.warm {
		s.warm[i] = r.uvarint()
	}
	for i := range s.measure {
		s.measure[i] = r.uvarint()
	}
	s.seed = make([]int64, nc)
	for i := range s.seed {
		s.seed[i] = r.zvarint()
	}

	mr := &byteReader{buf: r.section("metrics")}
	if r.err != nil {
		return nil, r.err
	}
	bitmapLen := (nc + 7) / 8
	s.metrics = make([]segMetric, mr.count(1+bitmapLen))
	for k := range s.metrics {
		m := &s.metrics[k]
		m.name = dictIndex(mr, "metric")
		m.bitmap = mr.take(bitmapLen)
		if mr.err != nil {
			return nil, mr.err
		}
		if want == nil || want(s.dict[m.name]) {
			m.vals = make([]uint64, nc)
		}
		var prev uint64
		for i := 0; i < nc; i++ {
			if !m.has(i) {
				continue
			}
			prev += uint64(mr.zvarint())
			if m.vals != nil {
				m.vals[i] = prev
			}
		}
	}
	if mr.err != nil {
		return nil, mr.err
	}
	s.hists = r.section("hists")
	r.section("series") // framing checked; the content is never decoded
	if r.err != nil {
		return nil, r.err
	}
	return s, nil
}

// dictHasAny reports whether a segment dictionary holds one of names
// (none named = any).
func dictHasAny(dict [][]byte, names []string) bool {
	for _, b := range dict {
		for _, s := range names {
			if string(b) == s {
				return true
			}
		}
	}
	return len(names) == 0
}

// decodeSegment decodes one segment payload into cells, honouring the
// options' filters and section selection.
func decodeSegment(payload []byte, opt CellOptions) ([]Cell, error) {
	s, err := decodeScalars(payload, opt.Workloads, opt.Designs, nil)
	if s == nil {
		return nil, err
	}
	dict := make([]string, len(s.dict))
	for i, b := range s.dict {
		dict[i] = string(b)
	}
	nc := len(s.seed)
	cells := make([]Cell, nc)
	keep := make([]bool, nc)
	for i := range cells {
		cells[i] = Cell{
			Workload: dict[s.workload[i]], Design: dict[s.design[i]], Mode: dict[s.mode[i]],
			Cores: s.cores[i], Warm: s.warm[i], Measure: s.measure[i], Seed: s.seed[i],
		}
		keep[i] = opt.wantWorkload(cells[i].Workload) &&
			opt.wantDesign(cells[i].Design) && opt.wantSeed(cells[i].Seed)
		if keep[i] {
			cells[i].Metrics = make(map[string]uint64, len(s.metrics))
		}
	}
	for k := range s.metrics {
		m := &s.metrics[k]
		for i := range cells {
			if keep[i] && m.has(i) {
				cells[i].Metrics[dict[m.name]] = m.vals[i]
			}
		}
	}

	// Histogram section: decoded only when requested, otherwise skipped as
	// one byte range.
	if opt.WithHists {
		hr := &byteReader{buf: s.hists}
		for i := 0; i < nc && hr.err == nil; i++ {
			nh := hr.count(1)
			for j := 0; j < nh && hr.err == nil; j++ {
				var h Hist
				if idx := hr.uvarint(); idx < uint64(len(dict)) {
					h.Name = dict[idx]
				} else if hr.err == nil {
					hr.fail(fmt.Errorf("%w: hist dictionary index %d of %d", ErrCorrupt, idx, len(dict)))
				}
				nb := hr.count(1)
				h.Bounds = make([]uint64, nb)
				prev := int64(0)
				for k := range h.Bounds {
					prev += hr.zvarint()
					h.Bounds[k] = uint64(prev)
				}
				nct := hr.count(1)
				h.Counts = make([]uint64, nct)
				for k := range h.Counts {
					h.Counts[k] = hr.uvarint()
				}
				h.N, h.Sum = hr.uvarint(), hr.uvarint()
				h.Min, h.Max = hr.uvarint(), hr.uvarint()
				if keep[i] && hr.err == nil {
					cells[i].Hists = append(cells[i].Hists, h)
				}
			}
		}
		if hr.err != nil {
			return nil, hr.err
		}
	}

	out := cells[:0]
	for i := range cells {
		if keep[i] {
			out = append(out, cells[i])
		}
	}
	return out, nil
}

// checkHeader validates the file header, returning the offset of the first
// block.
func checkHeader(data []byte) (int, error) {
	if len(data) < headerSize {
		return 0, fmt.Errorf("%w: %d bytes is smaller than the file header", ErrTruncated, len(data))
	}
	if m := binary.LittleEndian.Uint32(data); m != Magic {
		return 0, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, m)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != Version {
		return 0, fmt.Errorf("%w: store version %d, this build reads version %d", ErrVersion, v, Version)
	}
	return headerSize, nil
}

// nextBlock validates the block at data[off:] and returns its kind,
// payload, and the offset of the following block.
func nextBlock(data []byte, off int) (kind uint8, payload []byte, next int, err error) {
	if len(data)-off < blockOverhead {
		return 0, nil, 0, fmt.Errorf("%w: %d trailing bytes is smaller than a block frame", ErrTruncated, len(data)-off)
	}
	n := int(binary.LittleEndian.Uint32(data[off+1:]))
	if n > len(data)-off-blockOverhead {
		return 0, nil, 0, fmt.Errorf("%w: block of %d payload bytes, %d remain", ErrTruncated, n, len(data)-off-blockOverhead)
	}
	body := data[off : off+5+n]
	stored := binary.LittleEndian.Uint32(data[off+5+n:])
	if sum := crc32.ChecksumIEEE(body); sum != stored {
		return 0, nil, 0, fmt.Errorf("%w: block at offset %d: computed %#x, stored %#x", ErrChecksum, off, sum, stored)
	}
	return data[off], body[5:], off + 5 + n + 4, nil
}

// eachSegment calls fn with the payload of every segment block of a
// marshalled store (header + blocks), in file order. Strict: a torn tail or
// corrupt block is an error here; the Writer's reopen path is where torn
// tails are forgiven. Unknown block kinds are skipped: a v1 reader stays
// forward-compatible with files that gained new auxiliary block kinds.
func eachSegment(data []byte, fn func(payload []byte) error) error {
	off, err := checkHeader(data)
	if err != nil {
		return err
	}
	for off < len(data) {
		kind, payload, next, err := nextBlock(data, off)
		if err != nil {
			return err
		}
		if kind == blockSegment {
			if err := fn(payload); err != nil {
				return fmt.Errorf("block at offset %d: %w", off, err)
			}
		}
		off = next
	}
	return nil
}

// decodeAll decodes every cell in a marshalled store matching the options.
func decodeAll(data []byte, opt CellOptions) ([]Cell, error) {
	var cells []Cell
	err := eachSegment(data, func(payload []byte) error {
		cs, err := decodeSegment(payload, opt)
		cells = append(cells, cs...)
		return err
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}
