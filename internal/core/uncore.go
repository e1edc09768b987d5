package core

import (
	"dnc/internal/isa"
	"dnc/internal/llc"
	"dnc/internal/memory"
	"dnc/internal/noc"
)

// Uncore is the shared fabric of the CMP: the banked LLC, the mesh
// interconnect, and main memory. Requests arrive in tick order — directly, or
// replayed in that order from posted mode's outboxes — so contention (link
// serialization, bandwidth queueing) is deterministic.
type Uncore struct {
	LLC  *llc.LLC
	Mesh *noc.Mesh
	DRAM *memory.DRAM
	// blockFlits is the flit count of a block's data response.
	blockFlits int
}

// NewUncore assembles the uncore of Table III around the given LLC (32 MB in
// 16 banks by default): a 4x4 mesh with 60 ns / 85 GB/s memory behind it. An
// owner that is done with the uncore may Release it.
func NewUncore(l *llc.LLC) *Uncore {
	u := &Uncore{
		LLC:  l,
		Mesh: noc.New(),
		DRAM: memory.New(),
	}
	u.blockFlits = u.Mesh.FlitsFor(isa.BlockBytes)
	return u
}

// Release hands the LLC back for reuse by a later uncore and detaches it, so
// a stray use after release faults instead of corrupting another run's cache.
func (u *Uncore) Release() {
	if u.LLC != nil {
		u.LLC.Release()
		u.LLC = nil
	}
}

// Access performs a block fetch from tile src at the given cycle and returns
// the cycle the fill arrives back at the requester, plus whether the LLC
// hit. The path is: request packet over the mesh to the home bank, bank
// access, (on a miss) memory access and LLC fill, then the data response
// packet back.
func (u *Uncore) Access(src int, b isa.BlockID, cycle uint64, isInst bool) (uint64, bool) {
	bank := u.LLC.BankOf(b)
	t := u.Mesh.Send(noc.Tile(src), noc.Tile(bank), 1, cycle)
	t += u.LLC.AccessCycles() + u.LLC.BankDelay(b, t)
	hit := u.LLC.Access(b, isInst)
	if !hit {
		t = u.DRAM.Access(t, isa.BlockBytes)
		u.LLC.Insert(b, isInst)
	}
	t = u.Mesh.Send(noc.Tile(bank), noc.Tile(src), u.blockFlits, t)
	return t, hit
}

// MinRoundTrip returns the fewest cycles any Access takes from request to
// reply: a one-cycle forward to a home bank on the requester's own tile (the
// mesh's local case; a remote hop takes longer), the bank access, and the
// forward back. Bank queueing, hops and memory only add to it. It is posted
// mode's lookahead (see posted.go), 20 cycles at the Table III defaults.
func (u *Uncore) MinRoundTrip() uint64 { return 1 + u.LLC.AccessCycles() + 1 }

// Preload installs the instruction footprint of an image into the empty LLC
// (long-warmed state, as checkpointed full-system simulation would have). It
// copies nothing: each LLC set computes its share on first touch (llc.Warm).
func (u *Uncore) Preload(im *isa.Image) {
	u.LLC.Warm(isa.BlockOf(im.Base), isa.BlockOf(im.End()-1))
}
