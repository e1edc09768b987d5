package cfg

import (
	"fmt"
	"math"
	"math/rand"

	"dnc/internal/isa"
)

// TermKind classifies how a basic block ends.
type TermKind uint8

// Basic-block terminators.
const (
	TermFall TermKind = iota // no branch; execution continues to Next
	TermCond                 // conditional branch: TargetBB if taken, Next otherwise
	TermJump                 // unconditional jump to TargetBB
	TermCall                 // call Callee (or one of Callees if indirect), return to Next
	TermRet                  // return to caller (dispatcher if stack empty)
)

// String names the terminator.
func (t TermKind) String() string {
	switch t {
	case TermFall:
		return "fall"
	case TermCond:
		return "cond"
	case TermJump:
		return "jump"
	case TermCall:
		return "call"
	case TermRet:
		return "ret"
	default:
		return "?"
	}
}

// Block is a basic block: a pointer-free record of at most 56 bytes. Its
// instructions are not stored per block; their kinds (and, in variable-length
// mode, sizes) sit in the program-wide arrays at [first, first+n), addresses
// are derived from entry, and only the terminator — the last instruction of
// a block whose Term is not TermFall — carries a target. Program.Insts
// materializes them.
type Block struct {
	entry isa.Addr // address of the first instruction
	// target is the terminator's encoded target: the taken/jump target
	// block's entry, a direct call's callee entry, 0 otherwise.
	target isa.Addr
	// TakenProb is the probability a TermCond branch is taken.
	TakenProb float64
	first     uint32 // index of the first instruction in Program.kinds
	callees   uint32 // offset of the candidate list in Program.callees
	// TargetBB is the global index of the taken/jump target block.
	TargetBB int32
	// Callee is the function index of a direct call; -1 for indirect calls.
	Callee int32
	// Next is the global index of the fallthrough successor; -1 for the
	// final block of a function.
	Next int32
	// Func is the index of the owning function.
	Func int32
	n    uint16 // instructions in the block, terminator included
	Term TermKind
	// StableBias marks strongly biased conditional branches.
	StableBias bool
	// Rare marks rarely executed blocks (guarded error paths).
	Rare bool
}

// maxBlockInsts is the longest block a Block record can describe.
const maxBlockInsts = math.MaxUint16

// Entry returns the block's first-instruction address.
func (b *Block) Entry() isa.Addr { return b.entry }

// Len returns the number of instructions in the block.
func (b *Block) Len() int { return int(b.n) }

// Func is a generated function: a contiguous run of basic blocks.
type Func struct {
	First, Last int32 // global block index range [First, Last]
	Hot         bool
}

// Program is a generated synthetic program, immutable once built. Per
// instruction it stores one kind byte (plus one size byte in variable-length
// mode); everything else about an instruction is derived from its block.
type Program struct {
	Params Params
	Funcs  []Func
	Blocks []Block
	Image  *isa.Image
	hot    []int32 // indices of hot functions

	kinds []isa.Kind // every instruction's kind, block after block
	sizes []uint8    // every instruction's size; nil in fixed-length mode
	// callees holds the candidate functions of the indirect call sites, each
	// list prefixed by its length; offset 0 is the empty list every other
	// block points at.
	callees []int32
}

// blockKinds returns the kinds of the block's instructions.
func (p *Program) blockKinds(b *Block) []isa.Kind { return p.kinds[b.first : b.first+uint32(b.n)] }

// blockSizes returns the sizes of the block's instructions, nil in
// fixed-length mode (every instruction is isa.FixedSize bytes).
func (p *Program) blockSizes(b *Block) []uint8 {
	if p.sizes == nil {
		return nil
	}
	return p.sizes[b.first : b.first+uint32(b.n)]
}

// calleesOf returns the candidate functions of the block's indirect call.
func (p *Program) calleesOf(b *Block) []int32 {
	at := b.callees + 1
	return p.callees[at : at+uint32(p.callees[b.callees])]
}

// Callees returns the candidate functions of an indirect call site; empty
// for every other block.
func (p *Program) Callees(bb int32) []int32 { return p.calleesOf(&p.Blocks[bb]) }

// inst derives instruction j of the block, which sits at address pc.
func (p *Program) inst(b *Block, j int, pc isa.Addr) isa.Inst {
	in := isa.Inst{PC: pc, Size: isa.FixedSize, Kind: p.kinds[int(b.first)+j]}
	if p.sizes != nil {
		in.Size = p.sizes[int(b.first)+j]
	}
	if j == int(b.n)-1 && b.Term != TermFall {
		in.Target = b.target
	}
	return in
}

// Insts materializes the block's instructions. The walker never does — it
// reads the flat arrays — so this allocates and is meant for tests, stats
// and tools.
func (p *Program) Insts(bb int32) []isa.Inst {
	b := &p.Blocks[bb]
	out := make([]isa.Inst, b.n)
	pc := b.entry
	for j := range out {
		out[j] = p.inst(b, j, pc)
		pc = out[j].NextPC()
	}
	return out
}

// Terminator returns the block's terminating instruction, if it has one.
func (p *Program) Terminator(bb int32) (isa.Inst, bool) {
	if p.Blocks[bb].Term == TermFall {
		return isa.Inst{}, false
	}
	insts := p.Insts(bb)
	return insts[len(insts)-1], true
}

// Generate builds a program from the parameters. Generation is deterministic
// given Params (including GenSeed). It panics on parameters it cannot build a
// program from, with an error naming them where the representation is the
// limit: blocks longer than a Block's 16-bit length, more instructions than
// its 32-bit index.
func Generate(p Params) *Program {
	p.setDefaults()
	// A block is 1..2*AvgBlockInsts-1 body instructions and a terminator.
	if longest := 2 * int64(p.AvgBlockInsts); longest > maxBlockInsts {
		panic(fmt.Errorf("cfg: workload %q: AvgBlockInsts = %d allows basic blocks of %d instructions, a block holds at most %d",
			p.Name, p.AvgBlockInsts, longest, maxBlockInsts))
	}
	// Size the arrays once, for the footprint plus the one function the loop
	// below overshoots by: the program is the largest resident object of a
	// process, and regrowing it is what would set the peak. lost is what the
	// loop's per-block byte estimate truncates away, per instruction.
	blockInsts := float64(p.AvgBlockInsts) + p.CondFrac + p.JumpFrac + p.CallFrac
	avgInstBytes, lost := 4.0, 0.0
	if p.Mode == isa.Variable {
		avgInstBytes, lost = 5.3, 1/blockInsts
	}
	estInsts := int(float64(p.FootprintBytes)/(avgInstBytes-lost)) + p.FuncMaxBlocks*2*p.AvgBlockInsts
	// Blocks index instructions with 32 bits; half the range leaves room for
	// the estimate's error.
	if int64(estInsts) > math.MaxUint32/2 {
		panic(fmt.Errorf("cfg: workload %q: FootprintBytes = %d is about %d instructions, more than a program holds",
			p.Name, p.FootprintBytes, estInsts))
	}
	rng := rand.New(rand.NewSource(p.GenSeed))
	estBlocks := int(float64(estInsts)/blockInsts) + p.FuncMaxBlocks
	prog := &Program{
		Params:  p,
		Funcs:   make([]Func, 0, estBlocks/max((p.FuncMinBlocks+p.FuncMaxBlocks)/2, 1)+1),
		Blocks:  make([]Block, 0, estBlocks),
		kinds:   make([]isa.Kind, 0, estInsts),
		callees: []int32{0},
	}

	// Pass 1: structure. Generate functions until the estimated footprint is
	// reached. Branch targets stay function-local block indices until layout;
	// call targets are resolved in pass 2 once the function count is known.
	for estBytes := 0; estBytes < p.FootprintBytes; {
		nBlocks := p.FuncMinBlocks + rng.Intn(p.FuncMaxBlocks-p.FuncMinBlocks+1)
		first := len(prog.Blocks)
		prog.Blocks = append(prog.Blocks, make([]Block, nBlocks)...)
		fn := prog.Blocks[first:]
		prog.kinds = genFunction(&p, rng, fn, prog.kinds)
		prog.Funcs = append(prog.Funcs, Func{First: int32(first), Last: int32(len(prog.Blocks) - 1)})
		for i := range fn {
			estBytes += int(float64(fn[i].n) * avgInstBytes)
		}
	}

	// Mark hot functions.
	nHot := int(float64(len(prog.Funcs)) * p.HotFuncFrac)
	if nHot < 1 {
		nHot = 1
	}
	perm := rng.Perm(len(prog.Funcs))
	prog.hot = make([]int32, nHot)
	for i := range prog.hot {
		prog.Funcs[perm[i]].Hot = true
		prog.hot[i] = int32(perm[i])
	}

	// Pass 2: resolve call sites.
	for i := range prog.Blocks {
		b := &prog.Blocks[i]
		if b.Term != TermCall {
			continue
		}
		if rng.Float64() < p.IndirectCallFrac {
			b.Callee = -1
			prog.kinds[b.first+uint32(b.n)-1] = isa.KindIndirect
			n := 2 + rng.Intn(3)
			b.callees = uint32(len(prog.callees))
			prog.callees = append(prog.callees, int32(n))
			for j := 0; j < n; j++ {
				prog.callees = append(prog.callees, prog.pickCallee(rng))
			}
		} else {
			b.Callee = prog.pickCallee(rng)
		}
	}

	// Pass 3: layout — assign sizes and addresses, resolve targets, encode
	// the image.
	layout(prog, rng)
	return prog
}

// skewedIndex samples an index in [0, n) with an exponentially decaying
// head when skew > 0; skew 0 is uniform.
func skewedIndex(rng *rand.Rand, n int, skew float64) int {
	if n <= 1 {
		return 0
	}
	if skew <= 0 {
		return rng.Intn(n)
	}
	idx := int(rng.ExpFloat64() / skew * float64(n) / 8)
	return idx % n
}

// pickCallee selects a callee function with the configured hot/cold skew.
func (p *Program) pickCallee(rng *rand.Rand) int32 {
	if len(p.hot) > 0 && rng.Float64() < p.Params.HotCallProb {
		return p.hot[skewedIndex(rng, len(p.hot), p.Params.HotSkew)]
	}
	return int32(rng.Intn(len(p.Funcs)))
}

// genFunction generates the blocks of one function into fn (zeroed, one
// element per block) and appends their instruction kinds — body, then the
// terminator's — to kinds. TargetBB holds function-local block indices, which
// layout makes global; a call's kind is KindCall until pass 2 decides whether
// the site is indirect.
func genFunction(p *Params, rng *rand.Rand, fn []Block, kinds []isa.Kind) []isa.Kind {
	nBlocks := len(fn)

	// Choose rare blocks: interior blocks, never adjacent, always with a
	// guarding predecessor and a join successor.
	for i := 2; i < nBlocks-1; i++ {
		if fn[i-1].Rare || fn[i-1].Term == TermCond {
			continue
		}
		if rng.Float64() < p.RareBlockFrac {
			fn[i].Rare = true
			// Guard: predecessor skips the rare block most of the time.
			fn[i-1].Term = TermCond
			fn[i-1].TargetBB = int32(i + 1)
			fn[i-1].TakenProb = 1 - p.RareExecProb
			fn[i-1].StableBias = true
		}
	}

	for i := 0; i < nBlocks; i++ {
		b := &fn[i]
		b.first = uint32(len(kinds))
		nBody := 1 + rng.Intn(2*p.AvgBlockInsts-1)
		for j := 0; j < nBody; j++ {
			r := rng.Float64()
			switch {
			case r < p.LoadFrac:
				kinds = append(kinds, isa.KindLoad)
			case r < p.LoadFrac+p.StoreFrac:
				kinds = append(kinds, isa.KindStore)
			default:
				kinds = append(kinds, isa.KindALU)
			}
		}

		switch {
		case i == nBlocks-1:
			b.Term = TermRet
		case b.Term == TermCond && b.TargetBB != 0:
			// already set as a rare-block guard
		default:
			genTerminator(p, rng, fn, i)
		}
		if k, ok := termInstKind(b.Term); ok {
			kinds = append(kinds, k)
		}
		b.n = uint16(len(kinds) - int(b.first))
	}
	return kinds
}

// genTerminator draws how block i of the function ends.
func genTerminator(p *Params, rng *rand.Rand, fn []Block, i int) {
	b := &fn[i]
	r := rng.Float64()
	switch {
	case r < p.CondFrac:
		b.Term = TermCond
		backward := i > 0 && rng.Float64() < p.BackwardFrac
		if backward {
			b.TargetBB = int32(rng.Intn(i + 1))
			// Loop back-edges in server code have small trip counts;
			// a strongly taken nested back-edge would trap execution
			// in a tiny footprint, which server workloads never do.
			b.TakenProb = 0.3 + 0.3*rng.Float64()
		} else {
			b.TargetBB = int32(pickForwardTarget(rng, i, fn))
			if rng.Float64() < p.StableBiasFrac {
				b.StableBias = true
				if rng.Float64() < 0.5 {
					b.TakenProb = p.TakenBias
				} else {
					b.TakenProb = 1 - p.TakenBias
				}
			} else {
				b.TakenProb = p.WeakBias
			}
		}
	case r < p.CondFrac+p.JumpFrac:
		b.Term = TermJump
		b.TargetBB = int32(pickForwardTarget(rng, i, fn))
	case r < p.CondFrac+p.JumpFrac+p.CallFrac:
		b.Term = TermCall
	default:
		b.Term = TermFall
	}
}

// pickForwardTarget picks a forward target, skewed to nearby blocks and
// avoiding rare blocks when possible.
func pickForwardTarget(rng *rand.Rand, i int, fn []Block) int {
	nBlocks := len(fn)
	if i >= nBlocks-1 {
		return nBlocks - 1
	}
	for try := 0; try < 4; try++ {
		d := 1 + geometric(rng, 0.5)
		t := i + d
		if t > nBlocks-1 {
			t = nBlocks - 1
		}
		if !fn[t].Rare {
			return t
		}
	}
	return nBlocks - 1
}

// geometric samples a geometric random variate with success probability p
// (support 0, 1, 2, ...).
func geometric(rng *rand.Rand, p float64) int {
	n := 0
	for rng.Float64() >= p && n < 32 {
		n++
	}
	return n
}

// FuncOfBlock returns the function owning the global block index.
func (p *Program) FuncOfBlock(bb int32) *Func { return &p.Funcs[p.Blocks[bb].Func] }

// NumInsts returns the total static instruction count.
func (p *Program) NumInsts() int { return len(p.kinds) }
