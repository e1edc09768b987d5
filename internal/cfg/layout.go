package cfg

import (
	"math/rand"

	"dnc/internal/isa"
)

// layout assigns instruction sizes and addresses to every block, makes the
// function-local branch targets global, resolves target addresses and encodes
// the code image, each instruction once, with its branch index. Functions are
// laid out back to back; blocks inside a function are contiguous, so
// intra-function fallthrough paths are sequential in memory — the property
// that makes most L1i misses of server workloads sequential.
func layout(prog *Program, rng *rand.Rand) {
	p := prog.Params

	// Pass A: choose sizes, assign entry addresses, link the blocks, count
	// the branches. A function's entry is kept beside the others, where the
	// calls of pass B find it without a cache miss into the blocks.
	if p.Mode == isa.Variable {
		prog.sizes = make([]uint8, len(prog.kinds))
	}
	pc, branches := p.CodeBase, 0
	funcEntry := make([]isa.Addr, len(prog.Funcs))
	for fi := range prog.Funcs {
		fn := &prog.Funcs[fi]
		funcEntry[fi] = pc
		for bi := fn.First; bi <= fn.Last; bi++ {
			b := &prog.Blocks[bi]
			b.entry = pc
			if prog.sizes == nil {
				pc += isa.Addr(b.n) * isa.FixedSize
			} else {
				sizes := prog.blockSizes(b)
				for j, k := range prog.blockKinds(b) {
					sizes[j] = instSize(k, rng)
					pc += isa.Addr(sizes[j])
				}
			}
			b.Func = int32(fi)
			b.Next = -1
			if bi < fn.Last {
				b.Next = bi + 1
			}
			if b.Term != TermFall {
				branches++
			}
			if b.Term == TermCond || b.Term == TermJump {
				b.TargetBB += fn.First
			} else {
				b.TargetBB = -1
			}
		}
	}

	// Pass B: resolve the terminators' target addresses and encode each
	// block straight into the image, which indexes the branches.
	asm := isa.NewAssembler(p.Mode, p.CodeBase, int(pc-p.CodeBase), branches)
	for bi := range prog.Blocks {
		b := &prog.Blocks[bi]
		switch {
		case b.TargetBB >= 0:
			b.target = prog.Blocks[b.TargetBB].entry
		case b.Term == TermCall && b.Callee >= 0:
			b.target = funcEntry[b.Callee]
		}
		asm.Block(b.entry, prog.blockKinds(b), prog.blockSizes(b), b.target)
	}
	prog.Image = asm.Image()
}

// termInstKind maps a terminator to its instruction kind; TermFall has none.
// An indirect call site (decided after the block is generated) uses
// KindIndirect instead: the target comes from a register, and a return
// address is pushed.
func termInstKind(t TermKind) (isa.Kind, bool) {
	switch t {
	case TermCond:
		return isa.KindCondBranch, true
	case TermJump:
		return isa.KindJump, true
	case TermCall:
		return isa.KindCall, true
	case TermRet:
		return isa.KindReturn, true
	default:
		return 0, false
	}
}

// instSize picks a variable-length encoding size for the kind.
func instSize(k isa.Kind, rng *rand.Rand) uint8 {
	switch {
	case k.HasEncodedTarget():
		return uint8(isa.VarBranchMinSize + rng.Intn(isa.VarMaxSize-isa.VarBranchMinSize+1))
	case k == isa.KindReturn:
		return uint8(2 + rng.Intn(3))
	case k == isa.KindIndirect:
		return uint8(2 + rng.Intn(5))
	default:
		return uint8(2 + rng.Intn(7))
	}
}
