// Package btb implements the branch target buffer organizations used by the
// evaluated designs: a conventional PC-indexed BTB (our proposal keeps it
// unmodified), the Confluence-like block-grained BTB prefetch buffer, a
// basic-block-oriented BTB (Boomerang), and Shotgun's split U-BTB/C-BTB/RIB
// with call/return footprints. Each is a cache.Table with its own payload.
package btb

import (
	"dnc/internal/cache"
	"dnc/internal/isa"
)

// Entry is a conventional BTB payload: the branch kind and its last-seen
// target. The tag is the branch PC.
type Entry struct {
	Kind   isa.Kind
	Target isa.Addr
}

// BTB is the conventional program-counter-indexed BTB used by the baseline
// core and by SN4L+Dis+BTB (which deliberately leaves the BTB unmodified),
// and the per-PC view of the basic-block organizations.
type BTB = cache.Table[isa.Addr, Entry]

// New returns a conventional BTB with the given entries and associativity.
func New(entries, ways int) *BTB { return cache.NewTable[Entry](entries, ways) }
