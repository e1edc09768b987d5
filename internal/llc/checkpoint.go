package llc

import (
	"fmt"

	"dnc/internal/checkpoint"
	"dnc/internal/isa"
)

// Snapshot serialises the LLC's full state: clock, stats, bank occupancy
// windows, and every set's lines, BF-holder pin, and stored footprints. The
// byte layout is that of one record per line and one (block, footprint) pair
// per stored footprint, whatever the in-memory packing.
func (c *LLC) Snapshot(e *checkpoint.Encoder) {
	e.Begin("llc")
	e.Int(c.banks)
	e.Int(c.setsPer)
	e.Int(c.ways)
	e.U64(c.clock)
	e.U64(c.queueSum)
	e.Struct(&c.stats)
	for i := range c.bankOcc {
		e.U64(c.bankOcc[i].window)
		e.U64(c.bankOcc[i].busy)
	}
	for si := range c.holder {
		base := si * c.ways
		for w, l := range c.lines[base : base+c.ways] {
			e.U64(uint64(blockOf(l)))
			e.Bool(l&validBit != 0)
			e.U64(c.lru[base+w])
			e.Bool(l&instBit != 0)
		}
		e.Int(int(c.holder[si]) - 1)
		bfs := c.setBFs(si)
		e.Int(len(bfs))
		for _, bf := range bfs {
			e.U64(uint64(blockOf(c.lines[base+int(bf.way)])))
			e.U32(bf.bf.Pack())
		}
	}
	e.End()
}

// Restore loads state written by Snapshot. Geometry must match, and the
// state must be one this LLC can hold: a snapshot that pins a BF-holder or
// stores footprints where DV is off, overfills a holder, or stores a
// footprint for a block that is not resident in its set is corrupt.
func (c *LLC) Restore(d *checkpoint.Decoder) error {
	if err := d.Begin("llc"); err != nil {
		return err
	}
	banks, setsPer, ways := d.Int(), d.Int(), d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if banks != c.banks || setsPer != c.setsPer || ways != c.ways {
		return fmt.Errorf("%w: LLC geometry %d banks x %d sets x %d ways in snapshot, machine has %dx%dx%d",
			checkpoint.ErrCorrupt, banks, setsPer, ways, c.banks, c.setsPer, c.ways)
	}
	c.clock = d.U64()
	c.queueSum = d.U64()
	if err := d.Struct(&c.stats); err != nil {
		return err
	}
	for i := range c.bankOcc {
		c.bankOcc[i].window = d.U64()
		c.bankOcc[i].busy = d.U64()
	}
	for si := range c.holder {
		base := si * c.ways
		for w := 0; w < ways; w++ {
			block, valid, lru, isInst := d.U64(), d.Bool(), d.U64(), d.Bool()
			if block >= maxBlocks {
				return fmt.Errorf("%w: set %d way %d block %#x out of range",
					checkpoint.ErrCorrupt, si, w, block)
			}
			c.lines[base+w] = 0
			if valid {
				c.lines[base+w] = packLine(isa.BlockID(block), isInst)
			}
			c.lru[base+w] = lru
		}
		held := d.Int()
		if d.Err() == nil && (held < -1 || held >= ways || (held >= 0 && !c.cfg.DVEnabled)) {
			return fmt.Errorf("%w: set %d BF-holder way %d out of range",
				checkpoint.ErrCorrupt, si, held)
		}
		c.holder[si] = uint8(held + 1)
		n := d.Count(12)
		if n > c.bfCap {
			return fmt.Errorf("%w: set %d stores %d footprints, holder capacity is %d",
				checkpoint.ErrCorrupt, si, n, c.bfCap)
		}
		for k := 0; k < n; k++ {
			block, bf := isa.BlockID(d.U64()), isa.UnpackBF(d.U32())
			w := c.find(si, block)
			if d.Err() == nil && w < 0 {
				return fmt.Errorf("%w: set %d stores a footprint for block %#x that is not resident",
					checkpoint.ErrCorrupt, si, uint64(block))
			}
			c.bfs[si*c.bfCap+k] = bfEntry{way: uint8(w), bf: bf}
		}
		c.bfLen[si] = uint8(n)
	}
	return d.End()
}

// Audit checks the DV-LLC structural invariants:
//
//   - a pinned BF-holder way index is within the set's ways, and the holder
//     way itself holds no block;
//   - a set never stores more footprints than BFsPerSet or Ways-1 (the
//     holder way cannot hold a footprint for itself);
//   - every stored footprint describes a block resident in its own set —
//     eviction must drop the footprint with the block — and no block has two;
//   - a set holding footprints (or pinning a holder) has at least one valid
//     instruction line, since the last departing instruction block releases
//     the holder.
//
// With DV off there is no footprint state, and the sweep reads two bytes per
// set. Each violation is returned as its own error.
func (c *LLC) Audit() []error {
	var errs []error
	for si, h := range c.holder {
		held, stored := int(h)-1, int(c.bfLen[si])
		if held >= c.ways {
			errs = append(errs, fmt.Errorf("llc: set %d BF-holder way %d out of range [0,%d)",
				si, held, c.ways))
			continue
		}
		if held < 0 {
			if stored != 0 {
				errs = append(errs, fmt.Errorf("llc: set %d stores %d footprints with no BF-holder way",
					si, stored))
			}
			continue
		}
		if !c.cfg.DVEnabled {
			errs = append(errs, fmt.Errorf("llc: set %d pins BF-holder way %d with DV off", si, held))
			continue
		}
		base := si * c.ways
		if c.lines[base+held] != 0 {
			errs = append(errs, fmt.Errorf("llc: set %d BF-holder way %d holds block %#x",
				si, held, uint64(blockOf(c.lines[base+held]))))
		}
		if !c.hasInst(si) {
			errs = append(errs, fmt.Errorf("llc: set %d pins a BF-holder with no resident instruction block", si))
		}
		if stored > c.bfCap {
			errs = append(errs, fmt.Errorf("llc: set %d stores %d footprints, cap is min(%d, ways-1=%d)",
				si, stored, c.cfg.BFsPerSet, c.ways-1))
			continue
		}
		var seen [4]uint64 // bit per way; New caps ways at 255
		for _, bf := range c.setBFs(si) {
			w := int(bf.way)
			switch {
			case w >= c.ways || c.lines[base+w] == 0:
				errs = append(errs, fmt.Errorf("llc: set %d stores a footprint for way %d, which holds no block",
					si, w))
			case seen[w/64]&(1<<(w%64)) != 0:
				errs = append(errs, fmt.Errorf("llc: set %d stores two footprints for block %#x",
					si, uint64(blockOf(c.lines[base+w]))))
			}
			seen[w/64] |= 1 << (w % 64)
		}
	}
	return errs
}
