package noc

import (
	"fmt"

	"dnc/internal/checkpoint"
)

// Snapshot serialises the mesh: every directed link's contention window and
// the traffic counters.
func (m *Mesh) Snapshot(e *checkpoint.Encoder) {
	e.Begin("noc")
	e.Int(m.cfg.Width)
	e.Int(m.cfg.Height)
	e.U64(m.flits)
	e.U64(m.packets)
	e.U64(m.queued)
	for i := range m.links {
		for d := range m.links[i] {
			e.U64(m.links[i][d].window)
			e.U64(m.links[i][d].flits)
		}
	}
	e.End()
}

// Restore loads state written by Snapshot. Mesh dimensions must match.
func (m *Mesh) Restore(d *checkpoint.Decoder) error {
	if err := d.Begin("noc"); err != nil {
		return err
	}
	w, h := d.Int(), d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if w != m.cfg.Width || h != m.cfg.Height {
		return fmt.Errorf("%w: mesh %dx%d in snapshot, machine has %dx%d",
			checkpoint.ErrCorrupt, w, h, m.cfg.Width, m.cfg.Height)
	}
	m.flits = d.U64()
	m.packets = d.U64()
	m.queued = d.U64()
	for i := range m.links {
		for dir := range m.links[i] {
			m.links[i][dir].window = d.U64()
			m.links[i][dir].flits = d.U64()
		}
	}
	// Whether a packet-less snapshot's link traffic was carried over a
	// statistics reset is not in the snapshot; take it as carried, so a
	// window resumed before its first packet audits as it would have.
	m.carried = 0
	if m.packets == 0 {
		m.carried = m.linkFlits()
	}
	return d.End()
}

// Audit checks the mesh's structural invariants. The windowed bandwidth
// model books traffic analytically (responses land on future windows), so
// flit-level conservation is not observable; what must hold is that the
// geometry is intact and the counters are consistent: a nonzero flit total
// implies injected packets, and so does any link traffic beyond what the
// windows already held when the statistics were last zeroed (links change
// only in Send, which counts a packet). The last clause is blind on a mesh
// restored from a packet-less snapshot: snapshots do not record the reset
// (their bytes predate it), so Restore takes all of that link traffic as
// carried.
//
// Each violation is returned as its own error.
func (m *Mesh) Audit() []error {
	var errs []error
	if got, want := len(m.links), m.cfg.Width*m.cfg.Height; got != want {
		errs = append(errs, fmt.Errorf("noc: %d link rows for a %dx%d mesh, want %d",
			got, m.cfg.Width, m.cfg.Height, want))
		return errs
	}
	for i := range m.links {
		if len(m.links[i]) != numDirs {
			errs = append(errs, fmt.Errorf("noc: tile %d has %d link directions, want %d",
				i, len(m.links[i]), numDirs))
		}
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
