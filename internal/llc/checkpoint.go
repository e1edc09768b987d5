package llc

import (
	"fmt"

	"dnc/internal/checkpoint"
	"dnc/internal/isa"
)

// State walks the LLC's full state: clock, stats, bank occupancy windows,
// and every set's lines, BF-holder pin, and stored footprints. The byte
// layout is that of one record per line and one (block, footprint) pair per
// stored footprint, whatever the in-memory packing, so each record is
// unpacked into locals, walked, and (loading) packed back. Geometry must
// match, and the loaded state must be one this LLC can hold: a snapshot that
// pins a BF-holder or stores footprints where DV is off, overfills a holder,
// or stores a footprint for a block that is not resident in its set is
// corrupt. Saving writes every untouched set first; loading overwrites
// every set and recounts the occupancy.
func (c *LLC) State(cp *checkpoint.Codec) {
	if cp.Loading() {
		// Whatever this LLC held or had yet to fill, the snapshot replaces.
		c.allTouched, c.warmN = true, 0
		clear(c.hints)
	} else {
		c.touchAll()
	}
	cp.Begin("llc")
	cp.Fixed("LLC banks", c.banks)
	cp.Fixed("LLC sets per bank", c.setsPer)
	cp.Fixed("LLC ways", c.ways)
	cp.U64(&c.clock)
	cp.Struct(&c.stats)
	for i := range c.bankOcc {
		cp.U64(&c.bankOcc[i].window)
		cp.U64(&c.bankOcc[i].busy)
	}
	for si := range c.holder {
		if cp.Err() != nil {
			return
		}
		base := si * c.ways
		for w := base; w < base+c.ways; w++ {
			l := c.lines[w]
			block, valid, isInst := uint64(blockOf(l)), l&validBit != 0, l&instBit != 0
			cp.U64(&block)
			cp.Bool(&valid)
			cp.U64(&c.lru[w])
			cp.Bool(&isInst)
			if !cp.Loading() {
				continue
			}
			if block >= maxBlocks {
				cp.Corrupt("set %d way %d block %#x out of range", si, w-base, block)
				return
			}
			c.lines[w] = 0
			if valid {
				c.lines[w] = packLine(isa.BlockID(block), isInst)
			}
		}
		held := int(c.holder[si]) - 1
		cp.Int(&held)
		bfs := c.setBFs(si)
		n := cp.Len("BF-holder", len(bfs), 12, c.bfCap)
		if cp.Loading() {
			if cp.Err() == nil && (held < -1 || held >= c.ways || (held >= 0 && c.cfg.DV != DVOn)) {
				cp.Corrupt("set %d BF-holder way %d out of range", si, held)
			}
			if cp.Err() != nil {
				return
			}
			c.holder[si], c.bfLen[si] = uint8(held+1), uint8(n)
			bfs = c.bfs[si*c.bfCap:][:n]
		}
		for k := range bfs {
			var block isa.BlockID
			var packed uint32
			if !cp.Loading() {
				block, packed = blockOf(c.lines[base+int(bfs[k].way)]), bfs[k].bf.Pack()
			}
			checkpoint.Word(cp, &block)
			cp.U32(&packed)
			if !cp.Loading() {
				continue
			}
			w := c.find(si, block)
			if cp.Err() == nil && w < 0 {
				cp.Corrupt("set %d stores a footprint for block %#x that is not resident", si, uint64(block))
			}
			if cp.Err() != nil {
				return
			}
			bfs[k] = bfEntry{way: uint8(w), bf: isa.UnpackBF(packed)}
		}
	}
	if cp.Loading() {
		c.occupied = 0
		for _, l := range c.lines {
			if l != 0 {
				c.occupied++
			}
		}
	}
	cp.End()
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
// The sweep visits the sets touched since the LLC was emptied (all of them
// after a snapshot), the only ones anything has written: a set nothing has
// touched is empty in memory, and what Warm preloads into it is what Insert
// would leave, which keeps the invariants. With DV off there is no footprint
// state, and the sweep reads two bytes per set. Each violation is returned
// as its own error.
func (c *LLC) Audit() []error {
	var errs []error
	n := len(c.touched)
	if c.allTouched {
		n = len(c.holder)
	}
	for i := 0; i < n; i++ {
		si := i
		if !c.allTouched {
			si = int(c.touched[i])
		}
		held, stored := int(c.holder[si])-1, int(c.bfLen[si])
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
		if c.cfg.DV != DVOn {
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
