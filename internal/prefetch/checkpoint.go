package prefetch

import (
	"fmt"

	"dnc/internal/btb"
	"dnc/internal/checkpoint"
	"dnc/internal/isa"
)

// This file is every design's and internal structure's State: the one walk
// that is both its snapshot and its restore. Geometry (table sizes, queue
// capacities) is configuration, re-established by the design constructor;
// snapshots carry only mutable state plus enough geometry to verify the
// snapshot matches the machine. Map-backed state goes in sorted key order so
// the encoding is byte-deterministic. The three storage shapes (pages,
// direct, ring) walk their elements in tables.go; each caller here names
// its table and walks the payloads.

// State walks the BTB and the optional prefetch buffer.
func (b *ConvBTB) State(c *checkpoint.Codec) {
	c.Begin("convbtb")
	b.BTB.State(c, btb.EntryState)
	if checkpoint.Same(c, "prefetch-buffer presence", b.PB != nil, c.Bool) {
		b.PB.State(c)
	}
	c.End()
}

// State walks the bit table, word by word.
func (t *seqTable) State(c *checkpoint.Codec) {
	c.Begin("seqtable")
	c.Fixed("SeqTable entries", t.Entries())
	c.Fixed("SeqTable words", t.words.n)
	t.words.state(c.U64)
	c.End()
}

// stateDisTable walks the discontinuity table, entry by entry.
func stateDisTable(c *checkpoint.Codec, t *disTable) {
	c.Begin("distable")
	t.state(c, "DisTable entries", c.U8)
	c.End()
}

// stateQueue walks a Proactive queue.
func stateQueue(c *checkpoint.Codec, q *ring[qItem]) {
	q.state(c, "queue", 17, func(it *qItem) {
		checkpoint.Word(c, &it.block)
		c.Int(&it.depth)
		c.Bool(&it.fromDis)
	})
}

func (r *bbRecorder) state(c *checkpoint.Codec) {
	checkpoint.Word(c, &r.start)
	c.Bool(&r.have)
}

// State implements Design.
func (d *Baseline) State(c *checkpoint.Codec) {
	c.Begin("baseline")
	d.ConvBTB.State(c)
	c.End()
}

// State implements Design.
func (d *NXL) State(c *checkpoint.Codec) {
	c.Begin("nxl")
	d.ConvBTB.State(c)
	c.End()
}

// State implements Design.
func (d *SN4L) State(c *checkpoint.Codec) {
	c.Begin("sn4l")
	d.ConvBTB.State(c)
	d.seq.State(c)
	c.End()
}

// State implements Design.
func (d *Dis) State(c *checkpoint.Codec) {
	c.Begin("dis")
	d.ConvBTB.State(c)
	stateDisTable(c, d.tab)
	c.End()
}

// State implements Design.
func (d *Discontinuity) State(c *checkpoint.Codec) {
	c.Begin("discontinuity")
	d.ConvBTB.State(c)
	d.tab.state(c, "discontinuity table entries", func(t *isa.BlockID) { checkpoint.Word(c, t) })
	checkpoint.Word(c, &d.prevBlock)
	c.Bool(&d.havePrev)
	c.End()
}

// State implements Design.
func (p *Proactive) State(c *checkpoint.Codec) {
	c.Begin("proactive")
	p.ConvBTB.State(c)
	p.seq.State(c)
	stateDisTable(c, p.dis)
	p.rlu.state(c, "RLU", 8, func(b *isa.BlockID) { checkpoint.Word(c, b) })
	stateQueue(c, &p.seqQ)
	stateQueue(c, &p.disQ)
	stateQueue(c, &p.rluQ)
	checkpoint.Map(c, "deferred-decode set", checkpoint.Keys(p.pendingDecode), 16, checkpoint.Unbounded,
		func() { clear(p.pendingDecode) },
		func(b isa.BlockID) {
			depth := p.pendingDecode[b]
			c.Int(&depth)
			p.pendingDecode[b] = depth
		})
	checkpoint.Set(c, "Dis-issued set", p.disIssued, checkpoint.Unbounded)
	c.Struct(&p.replay)
	c.End()
}

// Audit checks the proactive engine's queue and deferred-set bounds: queue
// occupancy within capacity, the deferred-decode map within its 64-entry
// bound, and the Dis-issued set within its 4096-entry bound.
func (p *Proactive) Audit() []error {
	var errs []error
	for _, q := range []struct {
		name string
		q    *ring[qItem]
	}{{"SeqQueue", &p.seqQ}, {"DisQueue", &p.disQ}, {"RLUQueue", &p.rluQ}} {
		if q.q.len() > q.q.cap() {
			errs = append(errs, fmt.Errorf("proactive: %s holds %d items over capacity %d",
				q.name, q.q.len(), q.q.cap()))
		}
	}
	if len(p.pendingDecode) > 64 {
		errs = append(errs, fmt.Errorf("proactive: deferred-decode set holds %d blocks over its 64-entry bound",
			len(p.pendingDecode)))
	}
	if len(p.disIssued) > 4096 {
		errs = append(errs, fmt.Errorf("proactive: Dis-issued set holds %d blocks over its 4096-entry bound",
			len(p.disIssued)))
	}
	return errs
}

// State implements Design.
func (d *Confluence) State(c *checkpoint.Codec) {
	c.Begin("confluence")
	d.ConvBTB.State(c)
	d.state(c, "confluence", func(r *missRecord) { checkpoint.Word(c, r) })
	c.End()
}

// State implements Design.
func (p *PIF) State(c *checkpoint.Codec) {
	c.Begin("pif")
	p.ConvBTB.State(c)
	checkpoint.Word(c, &p.curTrigger)
	c.U16(&p.curBits)
	c.Bool(&p.haveCur)
	p.state(c, "PIF", func(r *pifRegion) {
		checkpoint.Word(c, &r.trigger)
		c.U16(&r.bits)
	})
	c.End()
}

// State implements Design.
func (d *RDIP) State(c *checkpoint.Codec) {
	c.Begin("rdip")
	d.ConvBTB.State(c)
	d.tab.state(c, "RDIP table entries", func(s *rdipSet) {
		for j := range s.blocks {
			checkpoint.Word(c, &s.blocks[j])
		}
		c.U8(&s.n)
		c.U8(&s.next)
	})
	// The shadow RAS's capacity is its backing array's (see OnRetire).
	checkpoint.Words(c, "RDIP shadow RAS", &d.ras, cap(d.ras))
	c.U64(&d.sig)
	c.End()
}

// State implements Design.
func (d *Boomerang) State(c *checkpoint.Codec) {
	c.Begin("boomerang")
	d.bb.State(c, btb.BBEntryState)
	d.bypc.State(c, btb.EntryState)
	d.state(c)
	checkpoint.Words(c, "speculative RAS", &d.specRAS, checkpoint.Unbounded)
	c.End()
}

// State implements Design.
func (d *Shotgun) State(c *checkpoint.Codec) {
	c.Begin("shotgun")
	d.sb.State(c)
	d.bypcU.State(c, btb.EntryState)
	d.bypcC.State(c, btb.EntryState)
	d.bypcR.State(c, btb.EntryState)
	d.state(c)
	checkpoint.Slice(c, "speculative RAS", &d.specRAS, 9, checkpoint.Unbounded, func(r *shotgunRASEntry) {
		checkpoint.Word(c, &r.ret)
		c.U8(&r.retFP.Bits)
	})
	checkpoint.Word(c, &d.lastUStart)
	c.Bool(&d.region.open)
	checkpoint.Word(c, &d.region.owner)
	checkpoint.Word(c, &d.region.base)
	c.U8(&d.region.fp.Bits)
	c.Bool(&d.region.isRet)
	checkpoint.Words(c, "footprint owner stack", &d.fpStack, checkpoint.Unbounded)
	c.End()
}
