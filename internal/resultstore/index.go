package resultstore

// index is the memory-resident, column-major form of a store's scalar
// data: what an aggregate query reads. Identity tags are dictionary-encoded
// into dense ids, every scalar metric is one dense value column plus a
// presence bitmap, and histograms are left out (no query reads them).
// Cells keep their append order, so an aggregation over an index adds the
// same floats in the same order as one over the file's cells.
//
// A Writer keeps an index over everything it holds, sealed or pending, and
// answers Writer.Scan from it; Scan over a Reader decodes the file's
// segments straight into one. An index is not safe for concurrent mutation;
// any number of goroutines may scan one that nobody is appending to.
type index struct {
	n int

	// strs interns workload, design and mode tags; ids is its inverse.
	strs []string
	ids  map[string]uint32

	workload, design, mode []uint32
	cores                  []int
	warm, measure          []uint64
	seed                   []int64

	cols map[string]*column
}

// column is one scalar metric. vals and present may be shorter than the
// index (a metric no recent cell carried); cells past their end are absent.
type column struct {
	vals    []uint64
	present []uint64 // bit i set = cell i carries the metric
}

func newIndex() *index {
	return &index{ids: make(map[string]uint32), cols: make(map[string]*column)}
}

// bytes is the memory the columns hold (dictionary strings and map
// overhead, a few KB per index, are not counted).
func (ix *index) bytes() int {
	b := 4*(cap(ix.workload)+cap(ix.design)+cap(ix.mode)) +
		8*(cap(ix.cores)+cap(ix.warm)+cap(ix.measure)+cap(ix.seed))
	for _, c := range ix.cols {
		b += 8 * (cap(c.vals) + cap(c.present))
	}
	return b
}

func (ix *index) intern(s string) uint32 {
	id, ok := ix.ids[s]
	if !ok {
		id = uint32(len(ix.strs))
		ix.strs = append(ix.strs, s)
		ix.ids[s] = id
	}
	return id
}

func (ix *index) column(name string) *column {
	c := ix.cols[name]
	if c == nil {
		c = &column{}
		ix.cols[name] = c
	}
	return c
}

// grow extends the column to cover n cells, the new ones absent.
func (c *column) grow(n int) {
	if d := n - len(c.vals); d > 0 {
		c.vals = append(c.vals, make([]uint64, d)...)
	}
	if d := (n+63)/64 - len(c.present); d > 0 {
		c.present = append(c.present, make([]uint64, d)...)
	}
}

// set records cell i's value; the column must already cover i.
func (c *column) set(i int, v uint64) {
	c.vals[i] = v
	c.present[i/64] |= 1 << (i % 64)
}

// get reads cell i; a nil column holds nothing.
func (c *column) get(i int) (uint64, bool) {
	if c == nil || i >= len(c.vals) || c.present[i/64]&(1<<(i%64)) == 0 {
		return 0, false
	}
	return c.vals[i], true
}

// add appends one cell's tags and scalar metrics.
func (ix *index) add(c *Cell) {
	i := ix.n
	ix.workload = append(ix.workload, ix.intern(c.Workload))
	ix.design = append(ix.design, ix.intern(c.Design))
	ix.mode = append(ix.mode, ix.intern(c.Mode))
	ix.cores = append(ix.cores, c.Cores)
	ix.warm = append(ix.warm, c.Warm)
	ix.measure = append(ix.measure, c.Measure)
	ix.seed = append(ix.seed, c.Seed)
	for name, v := range c.Metrics {
		col := ix.column(name)
		col.grow(i + 1)
		col.set(i, v)
	}
	ix.n++
}

// key is cell i's canonical identity (Cell.Key).
func (ix *index) key(i int) string {
	c := Cell{
		Workload: ix.strs[ix.workload[i]], Design: ix.strs[ix.design[i]], Mode: ix.strs[ix.mode[i]],
		Cores: ix.cores[i], Warm: ix.warm[i], Measure: ix.measure[i], Seed: ix.seed[i],
	}
	return c.Key()
}

// addSegment decodes one segment payload onto the end of the index. With q
// nil it takes everything; with a query it takes only the scalar columns
// the query's metric reads, and skips a segment whose dictionary holds none
// of the query's workloads or designs. It accepts exactly the payloads
// decodeSegment does (both stand on decodeScalars), and a payload it rejects
// leaves the index untouched.
func (ix *index) addSegment(payload []byte, q *Query) error {
	var workloads, designs []string
	var want func(name []byte) bool
	if q != nil {
		workloads, designs, want = q.Workloads, q.Designs, q.reads
	}
	s, err := decodeScalars(payload, workloads, designs, want)
	if s == nil {
		return err
	}

	// A string is made only the first time the index sees a tag or a metric
	// name: local maps the segment's dictionary indices to index ids.
	const unseen = ^uint32(0)
	local := make([]uint32, len(s.dict))
	for i := range local {
		local[i] = unseen
	}
	tags := func(col, from []uint32) []uint32 {
		for _, idx := range from {
			if local[idx] == unseen {
				id, ok := ix.ids[string(s.dict[idx])]
				if !ok {
					id = ix.intern(string(s.dict[idx]))
				}
				local[idx] = id
			}
			col = append(col, local[idx])
		}
		return col
	}
	ix.workload = tags(ix.workload, s.workload)
	ix.design = tags(ix.design, s.design)
	ix.mode = tags(ix.mode, s.mode)
	ix.cores = append(ix.cores, s.cores...)
	ix.warm = append(ix.warm, s.warm...)
	ix.measure = append(ix.measure, s.measure...)
	ix.seed = append(ix.seed, s.seed...)
	base := ix.n
	ix.n += len(s.seed)

	for k := range s.metrics {
		m := &s.metrics[k]
		if m.vals == nil {
			continue
		}
		col := ix.cols[string(s.dict[m.name])]
		if col == nil {
			col = ix.column(string(s.dict[m.name]))
		}
		col.grow(ix.n)
		for i, v := range m.vals {
			if m.has(i) {
				col.set(base+i, v)
			}
		}
	}
	return nil
}
