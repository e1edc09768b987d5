package btb

import (
	"dnc/internal/cache"
	"dnc/internal/isa"
)

// Boomerang uses a basic-block-oriented BTB: entries are tagged by the
// basic block's start address and describe where the block ends and how it
// transfers control, which lets the prefetch engine walk the predicted
// control flow one basic block at a time.

// BBEntry is a basic-block BTB payload.
type BBEntry struct {
	// Size is the byte length of the basic block, from its start through
	// the end of its terminating branch; the fallthrough address is
	// start+Size.
	Size uint16
	// Kind is the terminating branch kind; KindALU marks a block that ends
	// without a branch (split because it reached the maximum length).
	Kind isa.Kind
	// BranchPC is the address of the terminating branch (0 when Kind is
	// KindALU).
	BranchPC isa.Addr
	// Target is the taken target for direct branches.
	Target isa.Addr
}

// Fallthrough returns the address immediately after the basic block.
func (e BBEntry) Fallthrough(start isa.Addr) isa.Addr { return start + isa.Addr(e.Size) }

// BBBTB is the basic-block-oriented BTB, keyed by basic-block start.
type BBBTB = cache.Table[isa.Addr, BBEntry]

// NewBBBTB returns a basic-block BTB with the given entries and ways.
func NewBBBTB(entries, ways int) *BBBTB { return cache.NewTable[BBEntry](entries, ways) }
