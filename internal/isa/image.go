package isa

import "fmt"

// Image is the raw code image of a simulated program: the bytes the
// pre-decoder sees when it is handed a cache block. The workload generator
// builds an Image with an Assembler, encoding its basic blocks;
// everything downstream (Dis replay, BTB prefill, branch-footprint
// construction) decodes real bytes out of it.
type Image struct {
	Mode Mode
	Base Addr
	Code []byte

	// Pre-decoded branch index (Fixed mode only): the branches of the
	// image's i-th block occupy pdBranches[pdStart[i]:pdStart[i+1]], in
	// offset order. Every core's pre-decoder consults this one immutable
	// table instead of re-decoding the block's 16 slots on each probe —
	// the single hottest path of the proactive designs — and immutability
	// makes the lookup safe from concurrently ticking cores. The Assembler
	// writes it as it encodes each branch; an image of raw bytes (NewImage)
	// has none, and PredecodeBlock and DecodeBranchAt decode its bytes
	// instead.
	pdStart    []int32
	pdBranches []Branch
}

// NewImage returns an image of raw bytes covering [base, base+len(code)),
// without a branch index: the pre-decoder decodes its bytes on each probe,
// whatever they hold. Images of encoded instructions come from an Assembler.
func NewImage(mode Mode, base Addr, code []byte) *Image {
	return &Image{Mode: mode, Base: base, Code: code}
}

// Assembler writes a code image in one pass, instruction after instruction
// from the image's base: each instruction is encoded once, by the encoder
// AppendInst uses, into an image allocated at its final size, and in Fixed
// mode each branch it encodes is appended to the image's branch index as
// it is written, so the bytes and the index cannot disagree.
type Assembler struct {
	im *Image
	at int // bytes written
	// first is the image's first cache block; next is the first block
	// whose pdStart entry is still unwritten (Fixed mode).
	first BlockID
	next  int
}

// NewAssembler returns an assembler for an image of exactly size bytes at
// base, holding about branches branch instructions (the index's capacity).
// A Fixed-mode image starts on an instruction slot.
func NewAssembler(mode Mode, base Addr, size, branches int) Assembler {
	a := Assembler{im: &Image{Mode: mode, Base: base, Code: make([]byte, size)}}
	if mode == Fixed && size > 0 {
		if base%FixedSize != 0 {
			panic(fmt.Sprintf("isa: fixed-mode image base %#x is not a multiple of %d", base, FixedSize))
		}
		a.first = BlockOf(base)
		a.im.pdStart = make([]int32, BlockOf(base+Addr(size)-1)-a.first+2)
		a.im.pdBranches = make([]Branch, 0, branches)
	}
	return a
}

// pc returns the address the next instruction is written at.
func (a *Assembler) pc() Addr { return a.im.Base + Addr(a.at) }

// Block encodes one basic block at entry, which must be the address the
// last block ended at (the base, first): instructions of the given kinds
// and sizes (nil in Fixed mode, where each is FixedSize bytes), the last
// one — the block's terminator — with the given target when its kind
// encodes one.
func (a *Assembler) Block(entry Addr, kinds []Kind, sizes []uint8, target Addr) {
	if entry != a.pc() {
		panic(fmt.Sprintf("isa: block at %#x written at %#x", entry, a.pc()))
	}
	a.at += encodeBlock(a.im.Code[a.at:], a.im.Mode, entry, kinds, sizes, target, a)
}

// index appends the branch just encoded at pc to the image's branch index
// (Fixed mode; a Variable-mode image has none).
func (a *Assembler) index(pc Addr, kind Kind, target Addr) {
	if a.im.pdStart == nil {
		return
	}
	a.openBlocks(int(BlockOf(pc) - a.first))
	a.im.pdBranches = append(a.im.pdBranches,
		Branch{Offset: uint8(ByteOffset(pc)), Kind: kind, Target: target})
}

// openBlocks starts the index entries of every block up to and including
// block bi of the image: their branches begin at the next one appended.
func (a *Assembler) openBlocks(bi int) {
	for ; a.next <= bi; a.next++ {
		a.im.pdStart[a.next] = int32(len(a.im.pdBranches))
	}
}

// Image returns the finished image; it panics unless the image's every byte
// has been written. The assembler must not be used afterwards.
func (a *Assembler) Image() *Image {
	if a.at != len(a.im.Code) {
		panic(fmt.Sprintf("isa: image of %d bytes finished after %d", len(a.im.Code), a.at))
	}
	if a.im.pdStart != nil {
		a.openBlocks(len(a.im.pdStart) - 1)
	}
	return a.im
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
