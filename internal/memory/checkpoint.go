package memory

import "dnc/internal/checkpoint"

// State walks the bandwidth pipe state and statistics.
func (d *DRAM) State(c *checkpoint.Codec) {
	c.Begin("dram")
	c.U64(&d.busyUntil)
	c.U64(&d.deciDebt)
	c.U64(&d.accesses)
	c.U64(&d.queued)
	c.End()
}
