package isa

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Encoding details.
//
// Fixed mode (4 bytes, little-endian):
//
//	byte0: kind (low nibble) | 0xA0 marker (high nibble)
//	byte1..3: signed 24-bit *word* delta to the target for direct branches
//	          (target = pc + 4*delta); zero/payload otherwise
//
// Variable mode (2-10 bytes):
//
//	byte0: kind (low 3 bits) | (size-2) << 3
//	for direct branches (size >= 6):
//	  byte1..4: signed 32-bit *byte* delta to the target (target = pc+delta)
//	remaining bytes: 0x90 filler
const (
	fixedMarker = 0xA0

	// FixedSize is the instruction size in Fixed mode.
	FixedSize = 4

	// VarMinSize and VarMaxSize bound Variable-mode instruction sizes.
	VarMinSize = 2
	VarMaxSize = 10
	// VarBranchMinSize is the minimum size of a Variable-mode direct branch
	// (opcode byte + 4 target bytes + at least one filler byte).
	VarBranchMinSize = 6

	varFiller = 0x90
)

// EncodedSizeOK reports whether size is legal for the kind in the mode.
func EncodedSizeOK(mode Mode, kind Kind, size int) bool {
	if mode == Fixed {
		return size == FixedSize
	}
	if size < VarMinSize || size > VarMaxSize {
		return false
	}
	if kind.HasEncodedTarget() {
		return size >= VarBranchMinSize
	}
	return true
}

// AppendInst appends the encoding of inst to dst and returns the extended
// slice. It panics on malformed instructions; instruction streams are built
// by the workload generator, so a malformed instruction is a program bug.
func AppendInst(dst []byte, mode Mode, inst Inst) []byte {
	n := len(dst)
	dst = slices.Grow(dst, int(inst.Size))[:n+int(inst.Size)]
	kinds, sizes := [1]Kind{inst.Kind}, [1]uint8{inst.Size}
	encodeBlock(dst[n:], mode, inst.PC, kinds[:], sizes[:], inst.Target, nil)
	return dst
}

// encodeBlock is the one encoder: AppendInst and the Assembler both go
// through it. It writes a basic block at pc into the front of code:
// instructions of the given kinds and sizes (nil in Fixed mode, where each
// is FixedSize bytes), the last one — the block's terminator — with the
// given target when its kind encodes one. When a is not nil it hands each
// branch it writes, with the target a decoder reads back from the bytes,
// to a's branch index. It returns the bytes written, and panics on a
// malformed instruction or one that overruns code.
func encodeBlock(code []byte, mode Mode, pc Addr, kinds []Kind, sizes []uint8, target Addr, a *Assembler) int {
	at, last := 0, len(kinds)-1
	for j, k := range kinds {
		size := FixedSize
		if sizes != nil {
			size = int(sizes[j])
		}
		if !EncodedSizeOK(mode, k, size) {
			panic(fmt.Sprintf("isa: illegal size %d for %v in %v mode", size, k, mode))
		}
		if at+size > len(code) {
			panic(fmt.Sprintf("isa: %d-byte instruction at %#x overruns the image by %d bytes",
				size, pc, at+size-len(code)))
		}
		dst := code[at : at+size]
		var decoded Addr
		if k.HasEncodedTarget() && j == last {
			decoded = target
		}
		if mode == Fixed {
			var d int64
			if k.HasEncodedTarget() {
				d = (int64(decoded) - int64(pc)) / FixedSize
				if d < -(1<<23) || d >= (1<<23) {
					panic(fmt.Sprintf("isa: fixed-mode branch delta %d out of range at pc %#x", d, pc))
				}
				decoded = pc + Addr(d*FixedSize)
			}
			binary.LittleEndian.PutUint32(dst, uint32(fixedMarker|k)|(uint32(d)&0xFFFFFF)<<8)
		} else {
			dst[0] = byte(uint8(k) | uint8(size-2)<<3)
			rest := dst[1:]
			if k.HasEncodedTarget() {
				d := int64(decoded) - int64(pc)
				if d < -(1<<31) || d >= (1<<31) {
					panic(fmt.Sprintf("isa: variable-mode branch delta %d out of range at pc %#x", d, pc))
				}
				binary.LittleEndian.PutUint32(rest, uint32(int32(d)))
				rest = rest[4:]
			}
			for i := range rest {
				rest[i] = varFiller
			}
		}
		if a != nil && k.IsBranch() {
			a.index(pc, k, decoded)
		}
		at += size
		pc += Addr(size)
	}
	return at
}

// decode decodes the instruction at pc from raw code bytes. code[0] must be
// the first byte of the instruction. It returns false if the bytes cannot be
// a legal instruction (bad marker in fixed mode, truncated encoding, or an
// illegal kind/size combination).
func decode(mode Mode, pc Addr, code []byte) (Inst, bool) {
	if len(code) == 0 {
		return Inst{}, false
	}
	if mode == Fixed {
		if len(code) < FixedSize || code[0]&0xF0 != fixedMarker {
			return Inst{}, false
		}
		kind := Kind(code[0] & 0x0F)
		if kind >= numKinds {
			return Inst{}, false
		}
		inst := Inst{PC: pc, Size: FixedSize, Kind: kind}
		if kind.HasEncodedTarget() {
			u := uint32(code[1]) | uint32(code[2])<<8 | uint32(code[3])<<16
			// Sign-extend 24 bits.
			d := int32(u<<8) >> 8
			inst.Target = Addr(int64(pc) + int64(d)*FixedSize)
		}
		return inst, true
	}
	kind := Kind(code[0] & 0x07)
	size := int(code[0]>>3) + 2
	if !EncodedSizeOK(mode, kind, size) || len(code) < size {
		return Inst{}, false
	}
	inst := Inst{PC: pc, Size: uint8(size), Kind: kind}
	if kind.HasEncodedTarget() {
		u := uint32(code[1]) | uint32(code[2])<<8 | uint32(code[3])<<16 | uint32(code[4])<<24
		inst.Target = Addr(int64(pc) + int64(int32(u)))
	}
	return inst, true
}
