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
// the encoding is byte-deterministic.

// State walks the BTB and the optional prefetch buffer.
func (b *ConvBTB) State(c *checkpoint.Codec) {
	c.Begin("convbtb")
	b.BTB.State(c, btb.EntryState)
	if checkpoint.Same(c, "prefetch-buffer presence", b.PB != nil, c.Bool) {
		b.PB.State(c)
	}
	c.End()
}

// State walks the bit table, word by word; an unallocated page walks as
// the all-set words it reads as, and a load allocates only the pages whose
// words are not all set.
func (t *SeqTable) State(c *checkpoint.Codec) {
	c.Begin("seqtable")
	c.Fixed("SeqTable entries", t.n)
	c.Fixed("SeqTable words", t.words)
	spare := newSeqPage()
	for pi, p := range t.pages {
		if p == nil {
			p = spare
		}
		learnt := false
		for i := range min(seqPage, t.words-pi*seqPage) {
			c.U64(&p[i])
			learnt = learnt || p[i] != ^uint64(0)
		}
		if p == spare && learnt {
			t.pages[pi], spare = spare, newSeqPage()
		}
	}
	c.End()
}

// State walks the discontinuity table, entry by entry; an unallocated page
// walks as the invalid entries it reads as, and a load allocates only the
// pages that hold a nonzero entry.
func (t *DisTable) State(c *checkpoint.Codec) {
	c.Begin("distable")
	c.Fixed("DisTable entries", t.n)
	spare := new([disPage]disEntry)
	for pi, p := range t.pages {
		if p == nil {
			p = spare
		}
		used := false
		for i := range min(disPage, t.n-pi*disPage) {
			e := &p[i]
			c.Bool(&e.valid)
			c.U16(&e.tag)
			c.U8(&e.offset)
			used = used || *e != disEntry{}
		}
		if p == spare && used {
			t.pages[pi], spare = spare, new([disPage]disEntry)
		}
	}
	c.End()
}

func (r *RLU) state(c *checkpoint.Codec) {
	c.Fixed("RLU entries", len(r.entries))
	c.Int(&r.next)
	if n := len(r.entries); c.Loading() && n > 0 && (r.next < 0 || r.next >= n) {
		c.Corrupt("RLU cursor %d out of range", r.next)
	}
	for i := range r.entries {
		checkpoint.Word(c, &r.entries[i])
		c.Bool(&r.valid[i])
	}
}

// state walks the queued items in FIFO order; a loaded queue starts at the
// ring's first slot.
func (q *boundedQueue) state(c *checkpoint.Codec) {
	c.Fixed("queue capacity", q.cap)
	n := c.Len("queue", q.n, 17, q.cap)
	if c.Loading() {
		q.head, q.n = 0, n
	}
	for i := 0; i < n; i++ {
		it := &q.ring[(q.head+i)%len(q.ring)]
		checkpoint.Word(c, &it.block)
		c.Int(&it.depth)
		c.Bool(&it.fromDis)
	}
}

func (q *ftq) state(c *checkpoint.Codec) {
	c.Fixed("FTQ capacity", q.cap)
	checkpoint.Words(c, "FTQ", &q.blocks, q.cap)
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
	d.tab.State(c)
	c.End()
}

// State implements Design.
func (d *Discontinuity) State(c *checkpoint.Codec) {
	c.Begin("discontinuity")
	d.ConvBTB.State(c)
	c.Fixed("discontinuity table entries", len(d.valid))
	for i := range d.valid {
		c.Bool(&d.valid[i])
		c.U16(&d.tags[i])
		checkpoint.Word(c, &d.targets[i])
	}
	checkpoint.Word(c, &d.prevBlock)
	c.Bool(&d.havePrev)
	c.End()
}

// State implements Design.
func (p *Proactive) State(c *checkpoint.Codec) {
	c.Begin("proactive")
	p.ConvBTB.State(c)
	p.seq.State(c)
	p.dis.State(c)
	p.rlu.state(c)
	p.seqQ.state(c)
	p.disQ.state(c)
	p.rluQ.state(c)
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
		q    *boundedQueue
	}{{"SeqQueue", p.seqQ}, {"DisQueue", p.disQ}, {"RLUQueue", p.rluQ}} {
		if q.q.len() > q.q.cap {
			errs = append(errs, fmt.Errorf("proactive: %s holds %d items over capacity %d",
				q.name, q.q.len(), q.q.cap))
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
	c.Fixed("RDIP table entries", len(d.entries))
	for i := range d.entries {
		en := &d.entries[i]
		c.Bool(&en.valid)
		c.U16(&en.tag)
		for j := range en.blocks {
			checkpoint.Word(c, &en.blocks[j])
		}
		c.U8(&en.n)
		c.U8(&en.next)
	}
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
