package btb

import (
	"dnc/internal/checkpoint"
	"dnc/internal/isa"
)

// Payload walkers for the BTB organizations.

// EntryState walks a conventional BTB payload.
func EntryState(c *checkpoint.Codec, v *Entry) {
	checkpoint.Byte(c, &v.Kind)
	checkpoint.Word(c, &v.Target)
}

// BBEntryState walks a basic-block BTB payload.
func BBEntryState(c *checkpoint.Codec, v *BBEntry) {
	c.U16(&v.Size)
	checkpoint.Byte(c, &v.Kind)
	checkpoint.Word(c, &v.BranchPC)
	checkpoint.Word(c, &v.Target)
}

// BranchesState walks a pre-decoded branch list (the prefetch buffer
// payload).
func BranchesState(c *checkpoint.Codec, brs *[]isa.Branch) {
	checkpoint.Slice(c, "branch list", brs, 10, checkpoint.Unbounded, func(br *isa.Branch) {
		c.U8(&br.Offset)
		checkpoint.Byte(c, &br.Kind)
		checkpoint.Word(c, &br.Target)
	})
}

func ubbEntryState(c *checkpoint.Codec, v *UBBEntry) {
	BBEntryState(c, &v.BB)
	c.U8(&v.CallFP.Bits)
	c.U8(&v.RetFP.Bits)
	c.Bool(&v.HasFP)
}

// State walks the prefetch buffer.
func (p *PrefetchBuffer) State(c *checkpoint.Codec) { p.table.State(c, BranchesState) }

// State walks all three Shotgun structures and their footprint accounting.
func (s *ShotgunBTB) State(c *checkpoint.Codec) {
	c.Begin("shotgunbtb")
	s.U.State(c, ubbEntryState)
	s.C.State(c, BBEntryState)
	s.RIB.State(c, BBEntryState)
	c.U64(&s.ULookups)
	c.U64(&s.UFootprintMiss)
	c.End()
}
