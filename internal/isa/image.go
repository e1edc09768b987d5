package isa

// Image is the raw code image of a simulated program: the bytes the
// pre-decoder sees when it is handed a cache block. The workload generator
// builds an Image by encoding its basic blocks; everything downstream
// (Dis replay, BTB prefill, branch-footprint construction) decodes real
// bytes out of it.
type Image struct {
	Mode Mode
	Base Addr
	Code []byte

	// Pre-decoded branch index (Fixed mode only): the branches of the
	// image's i-th block occupy pdBranches[pdStart[i]:pdStart[i+1]], in
	// offset order. Every core's pre-decoder consults this one immutable
	// table instead of re-decoding the block's 16 slots on each probe —
	// the single hottest path of the proactive designs — and immutability
	// makes the lookup safe from concurrently ticking cores. Built once by
	// NewImage; PredecodeBlock falls back to decoding for images assembled
	// without it.
	pdStart    []int32
	pdBranches []Branch
}

// NewImage returns an image covering [base, base+len(code)).
func NewImage(mode Mode, base Addr, code []byte) *Image {
	im := &Image{Mode: mode, Base: base, Code: code}
	im.buildPredecodeIndex()
	return im
}

// buildPredecodeIndex pre-decodes every block of a Fixed-mode image into the
// shared branch index, paid once at construction (programs are generated
// once and cached). A pass over the opcode bytes alone counts the slots that
// may hold a branch, so the table is allocated once, and the decode pass
// then decodes only those slots.
func (im *Image) buildPredecodeIndex() {
	if im.Mode != Fixed || len(im.Code) == 0 {
		return
	}
	first := BlockOf(im.Base)
	last := BlockOf(im.End() - 1)
	n := int(last - first + 1)
	bound := 0
	for pc := BlockBase(first); pc < im.End(); pc += FixedSize {
		if im.branchOpAt(pc) {
			bound++
		}
	}
	im.pdStart = make([]int32, n+1)
	im.pdBranches = make([]Branch, 0, bound)
	for bi := 0; bi < n; bi++ {
		im.pdStart[bi] = int32(len(im.pdBranches))
		base := BlockBase(first + BlockID(bi))
		for off := 0; off < BlockBytes; off += FixedSize {
			if !im.branchOpAt(base + Addr(off)) {
				continue
			}
			inst, ok := im.DecodeAt(base + Addr(off))
			if !ok || !inst.Kind.IsBranch() {
				continue
			}
			im.pdBranches = append(im.pdBranches,
				Branch{Offset: uint8(off), Kind: inst.Kind, Target: inst.Target})
		}
	}
	im.pdStart[n] = int32(len(im.pdBranches))
}

// branchOpAt reports whether the Fixed-mode slot at pc has a branch opcode
// byte. Every slot that decodes to a branch has one; a slot truncated by the
// image's end may have one and still not decode.
func (im *Image) branchOpAt(pc Addr) bool {
	if !im.Contains(pc) {
		return false
	}
	op := im.Code[pc-im.Base]
	return op&0xF0 == fixedMarker && Kind(op&0x0F).IsBranch()
}

// predecoded returns the indexed branches of block b, with ok=false when the
// image carries no index. The slice aliases the shared table (capped, so an
// append cannot reach neighbouring blocks); callers must treat it as
// read-only.
func (im *Image) predecoded(b BlockID) ([]Branch, bool) {
	if im.pdStart == nil {
		return nil, false
	}
	bi := int(b - BlockOf(im.Base))
	s, e := im.pdStart[bi], im.pdStart[bi+1]
	if s == e {
		return nil, true
	}
	return im.pdBranches[s:e:e], true
}

// End returns the first address past the image.
func (im *Image) End() Addr { return im.Base + Addr(len(im.Code)) }

// Contains reports whether the address lies inside the image.
func (im *Image) Contains(a Addr) bool { return a >= im.Base && a < im.End() }

// ContainsBlock reports whether any byte of the block lies inside the image.
func (im *Image) ContainsBlock(b BlockID) bool {
	base := BlockBase(b)
	return base+BlockBytes > im.Base && base < im.End()
}

// BytesAt returns up to max bytes of code starting at address a. The returned
// slice aliases the image; callers must not modify it. It returns nil when a
// is outside the image.
func (im *Image) BytesAt(a Addr, max int) []byte {
	if !im.Contains(a) {
		return nil
	}
	off := int(a - im.Base)
	end := off + max
	if end > len(im.Code) {
		end = len(im.Code)
	}
	return im.Code[off:end]
}

// Block returns the 64 bytes of the given cache block, zero-padded where the
// block extends past the image. It returns nil if no byte of the block is in
// the image.
func (im *Image) Block(b BlockID) []byte {
	if !im.ContainsBlock(b) {
		return nil
	}
	base := BlockBase(b)
	out := make([]byte, BlockBytes)
	for i := 0; i < BlockBytes; i++ {
		a := base + Addr(i)
		if im.Contains(a) {
			out[i] = im.Code[a-im.Base]
		}
	}
	return out
}

// DecodeAt decodes the instruction starting at pc. Instructions may straddle
// block boundaries in Variable mode; decoding reads across blocks.
func (im *Image) DecodeAt(pc Addr) (Inst, bool) {
	return decode(im.Mode, pc, im.BytesAt(pc, VarMaxSize))
}
