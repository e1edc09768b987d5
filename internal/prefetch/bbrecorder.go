package prefetch

import (
	"dnc/internal/btb"
	"dnc/internal/isa"
)

// bbRecorder reconstructs basic blocks from the retired instruction stream.
// BTB-directed designs (Boomerang, Shotgun) train their basic-block-oriented
// BTBs at commit; the recorder delimits blocks at branches and splits
// over-long straight-line runs.
type bbRecorder struct {
	start    isa.Addr
	have     bool
	maxBytes int
	// emit receives each completed basic block keyed by its start address.
	emit func(start isa.Addr, bb btb.BBEntry)
}

func newBBRecorder(maxBytes int, emit func(isa.Addr, btb.BBEntry)) *bbRecorder {
	if maxBytes == 0 {
		maxBytes = 2 * isa.BlockBytes
	}
	return &bbRecorder{maxBytes: maxBytes, emit: emit}
}

// retire observes a committed instruction. taken and target describe the
// resolved control transfer (target 0 for not-taken conditionals).
func (r *bbRecorder) retire(inst isa.Inst, taken bool, target isa.Addr) {
	if !r.have {
		r.start, r.have = inst.PC, true
	}
	if inst.PC < r.start {
		// Lost synchronization (redirect); restart here.
		r.start = inst.PC
	}
	if inst.Kind.IsBranch() {
		bbTarget := inst.Target
		if !inst.Kind.HasEncodedTarget() {
			// Indirect/return: remember the last observed target.
			bbTarget = target
		}
		r.emit(r.start, btb.BBEntry{
			Size:     uint16(inst.NextPC() - r.start),
			Kind:     inst.Kind,
			BranchPC: inst.PC,
			Target:   bbTarget,
		})
		if taken {
			r.start = target
		} else {
			r.start = inst.NextPC()
		}
		return
	}
	if int(inst.NextPC()-r.start) >= r.maxBytes {
		// Split a long straight-line run: a block-terminated entry whose
		// "branch" is a fallthrough continuation.
		r.emit(r.start, btb.BBEntry{
			Size: uint16(inst.NextPC() - r.start),
			Kind: isa.KindALU,
		})
		r.start = inst.NextPC()
	}
}

// redirect resynchronizes after a pipeline redirect.
func (r *bbRecorder) redirect(pc isa.Addr) {
	r.start, r.have = pc, true
}

// bbFromPredecode constructs the basic block starting at pc from the
// pre-decoded branches of pc's cache block: the BB ends at the first branch
// at or after pc. If the block's remaining bytes hold no branch, the entry
// is a fallthrough continuation to the next block (the engine keeps
// walking). This is the reactive BTB-fill path of Boomerang and Shotgun.
func bbFromPredecode(pc isa.Addr, branches []isa.Branch) btb.BBEntry {
	off := isa.ByteOffset(pc)
	for _, br := range branches {
		if uint(br.Offset) < off {
			continue
		}
		return btb.BBEntry{
			// Fixed-length ISA: a branch instruction is FixedSize bytes.
			Size:     uint16(uint(br.Offset)+isa.FixedSize) - uint16(off),
			Kind:     br.Kind,
			BranchPC: isa.BlockBase(isa.BlockOf(pc)) + isa.Addr(br.Offset),
			Target:   br.Target,
		}
	}
	return btb.BBEntry{Size: uint16(isa.BlockBytes - off), Kind: isa.KindALU}
}
