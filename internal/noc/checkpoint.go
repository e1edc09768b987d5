package noc

import (
	"fmt"

	"dnc/internal/checkpoint"
)

// State walks the mesh: every directed link's contention window and the
// traffic counters. Mesh dimensions must match.
func (m *Mesh) State(c *checkpoint.Codec) {
	c.Begin("noc")
	c.Fixed("mesh width", Width)
	c.Fixed("mesh height", Height)
	c.U64(&m.flits)
	c.U64(&m.packets)
	c.U64(&m.queued)
	for i := range m.links {
		c.U64(&m.links[i].window)
		c.U64(&m.links[i].flits)
	}
	c.End()
	if c.Loading() {
		// Whether a packet-less snapshot's link traffic was carried over a
		// statistics reset is not in the snapshot; take it as carried, so a
		// window resumed before its first packet audits as it would have.
		m.carried = 0
		if m.packets == 0 {
			m.carried = m.linkFlits()
		}
	}
}

// Audit checks the mesh's structural invariants. The windowed bandwidth
// model books traffic analytically (responses land on future windows), so
// flit-level conservation is not observable; what must hold is that the
// geometry is intact and the counters are consistent: a nonzero flit total
// implies injected packets, and so does any link traffic beyond what the
// windows already held when the statistics were last zeroed (links change
// only in Send, which counts a packet). The last clause is blind on a mesh
// restored from a packet-less snapshot: snapshots do not record the reset
// (their bytes predate it), so a load takes all of that link traffic as
// carried.
//
// Each violation is returned as its own error.
func (m *Mesh) Audit() []error {
	var errs []error
	if got, want := len(m.links), Tiles*numDirs; got != want {
		errs = append(errs, fmt.Errorf("noc: %d links for a %dx%d mesh, want %d",
			got, Width, Height, want))
		return errs
	}
	if m.packets == 0 && m.flits != 0 {
		errs = append(errs, fmt.Errorf("noc: %d flits traversed with zero packets injected", m.flits))
	}
	if linkFlits := m.linkFlits(); m.packets == 0 && linkFlits != m.carried {
		errs = append(errs, fmt.Errorf("noc: link windows hold %d flits with zero packets injected (%d carried over the statistics reset)",
			linkFlits, m.carried))
	}
	return errs
}
