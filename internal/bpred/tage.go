package bpred

import "dnc/internal/isa"

// TAGE is a tagged-geometric-history-length predictor (Seznec & Michaud),
// scaled down: a bimodal base plus four tagged tables whose history lengths
// grow geometrically. It captures the strongly biased, occasionally
// correlated branch behaviour of the synthetic server workloads well enough
// to produce realistic misprediction rates for the timing model.
type TAGE struct {
	base   *Bimodal
	tables []tageTable
	hist   uint64 // global history, newest outcome in bit 0
}

type tageTable struct {
	entries []tageEntry
	mask    uint64
	histLen uint
}

type tageEntry struct {
	tag    uint16
	ctr    int8 // -4..3, taken when >= 0
	useful uint8
}

// The predictor's geometry: a modest TAGE, 4K bimodal + 4 x 1K tagged.
const (
	tageBaseEntries  = 4096
	tageTableEntries = 1024 // a power of two: indices are masked
)

// tageHistLens are the tagged tables' history lengths, shortest first.
var tageHistLens = [...]uint{8, 16, 32, 64}

// NewTAGE builds the predictor.
func NewTAGE() *TAGE {
	t := &TAGE{base: NewBimodal(tageBaseEntries)}
	for _, hl := range tageHistLens {
		t.tables = append(t.tables, tageTable{
			entries: make([]tageEntry, tageTableEntries),
			mask:    tageTableEntries - 1,
			histLen: hl,
		})
	}
	return t
}

// fold compresses the low n bits of history into width bits.
func fold(h uint64, n, width uint) uint64 {
	if n < 64 {
		h &= (1 << n) - 1
	}
	var out uint64
	for n > 0 {
		out ^= h & ((1 << width) - 1)
		h >>= width
		if n > width {
			n -= width
		} else {
			n = 0
		}
	}
	return out
}

func (tt *tageTable) index(pc isa.Addr, hist uint64) uint64 {
	return (uint64(pc)>>2 ^ fold(hist, tt.histLen, 10) ^ uint64(pc)>>12) & tt.mask
}

func (tt *tageTable) tag(pc isa.Addr, hist uint64) uint16 {
	return uint16((uint64(pc)>>2 ^ fold(hist, tt.histLen, 8)<<1 ^ uint64(pc)>>9) & 0xFF)
}

// lookup returns the matching provider table index, or -1.
func (t *TAGE) provider(pc isa.Addr) int {
	for i := len(t.tables) - 1; i >= 0; i-- {
		tt := &t.tables[i]
		e := &tt.entries[tt.index(pc, t.hist)]
		if e.tag == tt.tag(pc, t.hist) {
			return i
		}
	}
	return -1
}

// Predict implements Predictor.
func (t *TAGE) Predict(pc isa.Addr) bool {
	if p := t.provider(pc); p >= 0 {
		tt := &t.tables[p]
		return tt.entries[tt.index(pc, t.hist)].ctr >= 0
	}
	return t.base.Predict(pc)
}

// Update implements Predictor. It must be called for every resolved
// conditional branch, in program order.
func (t *TAGE) Update(pc isa.Addr, taken bool) {
	p := t.provider(pc)
	var predicted bool
	if p >= 0 {
		tt := &t.tables[p]
		e := &tt.entries[tt.index(pc, t.hist)]
		predicted = e.ctr >= 0
		if taken {
			if e.ctr < 3 {
				e.ctr++
			}
		} else if e.ctr > -4 {
			e.ctr--
		}
		if predicted == taken && e.useful < 3 {
			e.useful++
		}
	} else {
		predicted = t.base.Predict(pc)
		t.base.Update(pc, taken)
	}

	// On a misprediction, allocate in a longer-history table.
	if predicted != taken {
		t.allocate(pc, taken, p)
	}

	t.hist = t.hist<<1 | b2u(taken)
}

// allocate claims an entry in a table with longer history than the provider.
func (t *TAGE) allocate(pc isa.Addr, taken bool, provider int) {
	for i := provider + 1; i < len(t.tables); i++ {
		tt := &t.tables[i]
		e := &tt.entries[tt.index(pc, t.hist)]
		if e.useful == 0 {
			e.tag = tt.tag(pc, t.hist)
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			return
		}
		e.useful--
	}
}

// UpdateHistoryUncond folds an unconditional transfer into the global
// history (targets decorrelate paths, improving indirect-heavy streams).
func (t *TAGE) UpdateHistoryUncond(target isa.Addr) {
	t.hist = t.hist<<1 | (uint64(target)>>2)&1
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// RAS is a return address stack.
type RAS struct {
	stack []isa.Addr
	depth int
}

// NewRAS returns a stack with the given depth.
func NewRAS(depth int) *RAS {
	return &RAS{depth: depth, stack: make([]isa.Addr, 0, depth)}
}

// Push records a return address at a call; the oldest entry is dropped on
// overflow.
func (r *RAS) Push(ret isa.Addr) {
	if len(r.stack) == r.depth {
		copy(r.stack, r.stack[1:])
		r.stack = r.stack[:len(r.stack)-1]
	}
	r.stack = append(r.stack, ret)
}

// Pop predicts the target of a return; ok is false when the stack is empty.
func (r *RAS) Pop() (isa.Addr, bool) {
	if len(r.stack) == 0 {
		return 0, false
	}
	v := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	return v, true
}

// Depth returns the current occupancy.
func (r *RAS) Depth() int { return len(r.stack) }
