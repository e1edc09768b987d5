package prefetch

import (
	"fmt"

	"dnc/internal/cache"
	"dnc/internal/isa"
)

// Trigger selects when a sequential prefetcher fires; the paper's Section
// IV cites the NL, NL-miss, and NL-tagged variants of Smith's taxonomy.
type Trigger uint8

// Sequential trigger policies.
const (
	// TriggerAll fires on every demand access (the paper's NL/NXL).
	TriggerAll Trigger = iota
	// TriggerMiss fires only on demand misses (NL-miss).
	TriggerMiss
	// TriggerTagged fires on demand misses and on the first demand hit to
	// a prefetched block (NL-tagged).
	TriggerTagged
)

// String names the trigger.
func (t Trigger) String() string {
	switch t {
	case TriggerMiss:
		return "miss"
	case TriggerTagged:
		return "tagged"
	default:
		return "all"
	}
}

// NXL is the Next-X-Line sequential prefetcher family: on a triggering
// access to block A it prefetches A+1..A+X if absent. X=1 is the classic
// next-line prefetcher shipped in commercial parts; deeper variants trade
// accuracy for timeliness (Figures 4 and 5).
type NXL struct {
	Base
	*ConvBTB
	depth   int
	trigger Trigger
}

// NewNXL returns a next-X-line design over a conventional BTB, triggered on
// every access.
func NewNXL(depth, btbEntries int) *NXL {
	return NewNXLTriggered(depth, btbEntries, TriggerAll)
}

// NewNXLTriggered returns an NXL with an explicit trigger policy.
func NewNXLTriggered(depth, btbEntries int, trigger Trigger) *NXL {
	if depth < 1 {
		panic("prefetch: NXL depth must be >= 1")
	}
	return &NXL{ConvBTB: NewConvBTB(btbEntries, 4), depth: depth, trigger: trigger}
}

// Name implements Design.
func (d *NXL) Name() string {
	base := "NL"
	if d.depth != 1 {
		base = fmt.Sprintf("N%dL", d.depth)
	}
	if d.trigger != TriggerAll {
		return base + "-" + d.trigger.String()
	}
	return base
}

// OnDemand implements Design: prefetch the next X blocks when the trigger
// policy fires.
func (d *NXL) OnDemand(b isa.BlockID, hit bool, _ [2]isa.Addr) {
	switch d.trigger {
	case TriggerMiss:
		if hit {
			return
		}
	case TriggerTagged:
		if hit {
			line := d.E().L1iLine(b)
			if line == nil || line.Flags&cache.FlagPrefetched == 0 {
				return
			}
		}
	}
	for i := 1; i <= d.depth; i++ {
		prefetchAbsent(d.E(), b+isa.BlockID(i))
	}
}
