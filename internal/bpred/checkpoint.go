package bpred

import "dnc/internal/checkpoint"

// State walks the counter table. The table size must match.
func (b *Bimodal) State(c *checkpoint.Codec) {
	c.Begin("bimodal")
	c.Blob("bimodal table", b.table)
	c.End()
}

// State walks the base predictor, the global history register and every
// tagged table. Table geometry must match.
func (t *TAGE) State(c *checkpoint.Codec) {
	c.Begin("tage")
	t.base.State(c)
	c.U64(&t.hist)
	c.Fixed("TAGE table count", len(t.tables))
	for i := range t.tables {
		tt := &t.tables[i]
		c.Fixed("TAGE table size", len(tt.entries))
		for j := range tt.entries {
			en := &tt.entries[j]
			c.U16(&en.tag)
			checkpoint.Byte(c, &en.ctr)
			c.U8(&en.useful)
		}
	}
	c.End()
}

// State walks the stack contents.
func (r *RAS) State(c *checkpoint.Codec) {
	c.Begin("ras")
	c.Fixed("RAS depth", r.depth)
	checkpoint.Words(c, "RAS", &r.stack, r.depth)
	c.End()
}
