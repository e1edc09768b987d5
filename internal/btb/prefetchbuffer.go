package btb

import (
	"dnc/internal/cache"
	"dnc/internal/isa"
)

// PrefetchBuffer is the Confluence-like BTB prefetch buffer of the proposed
// design (Section V.C): a small 2-way set-associative structure keyed by
// cache block, each entry holding all pre-decoded branches of that block.
// Storing per block lets the pre-decoder fill one entry per decoded block in
// a single access, without modifying the BTB itself. A hit promotes the
// block's branches into the conventional BTB.
type PrefetchBuffer struct {
	table *cache.Table[isa.Addr, []isa.Branch]
	free  [][]isa.Branch // taken entries' storage, reused by Fill
}

// blockBranches is the most branches one block pre-decodes to: every
// instruction of a fixed-length block (a variable-length block's branch
// footprint holds fewer).
const blockBranches = isa.BlockBytes / isa.FixedSize

// NewPrefetchBuffer returns a buffer with the given block entries and ways
// (the paper uses 32 entries, 2-way).
//
// Known fault, kept so that no result moves before the next re-baseline:
// the buffer is a PC-keyed table (set = key>>2 & (sets-1)) keyed by the
// block's base address, block<<6, so every block lands in set 0 and the
// paper's 32-entry, 2-way buffer holds 2 blocks. Indexing it by block
// number fixes it and moves every SN4L+Dis+BTB result (CHANGES.md FOUND
// line "BTB prefetch buffer uses 2 of its 32 entries"; ROADMAP item 7(h)).
func NewPrefetchBuffer(entries, ways int) *PrefetchBuffer {
	return &PrefetchBuffer{table: cache.NewTable[[]isa.Branch](entries, ways),
		free: make([][]isa.Branch, 0, entries)}
}

// Fill stores a copy of the pre-decoded branches of a block (no-op for
// blocks without branches, which need no BTB entries). The copy goes into
// the storage of the entry it replaces or of a taken block, so a buffer
// allocates each entry's storage once.
func (p *PrefetchBuffer) Fill(b isa.BlockID, branches []isa.Branch) {
	if len(branches) == 0 {
		return
	}
	v, _, old, evicted := p.table.Insert(isa.BlockBase(b))
	switch {
	case *v != nil: // the block was resident
	case evicted:
		*v = old
	case len(p.free) > 0:
		*v = p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
	default:
		*v = make([]isa.Branch, 0, blockBranches)
	}
	*v = append((*v)[:0], branches...)
}

// TakeBlock removes and returns the entry for a block. The frontend calls
// this when a BTB lookup misses: a prefetch-buffer hit promotes every branch
// of the block into the BTB, avoiding the decode-redirect penalty. The
// branches are valid until the next Fill.
func (p *PrefetchBuffer) TakeBlock(b isa.BlockID) ([]isa.Branch, bool) {
	key := isa.BlockBase(b)
	brs, ok := p.table.Lookup(key)
	if !ok {
		return nil, false
	}
	p.table.Invalidate(key)
	p.free = append(p.free, brs)
	return brs, true
}

// Contains reports whether the buffer holds an entry for the block, without
// disturbing state.
func (p *PrefetchBuffer) Contains(b isa.BlockID) bool {
	_, ok := p.table.Peek(isa.BlockBase(b))
	return ok
}
