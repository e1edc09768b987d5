package cfg

import (
	"math/rand"

	"dnc/internal/checkpoint"
	"dnc/internal/isa"
)

// Step is one committed instruction of the executed stream.
type Step struct {
	Inst isa.Inst
	// Taken reports the outcome of conditional branches; it is true for all
	// executed unconditional transfers.
	Taken bool
	// NextPC is the address of the next committed instruction.
	NextPC isa.Addr
	// TargetPC is the actual transfer target for taken branches (equal to
	// NextPC); for indirect branches this is where the target becomes known.
	TargetPC isa.Addr
	// DataAddr is the effective address of loads/stores; 0 otherwise.
	DataAddr isa.Addr
}

// Stream supplies a committed instruction stream to a simulated core: the
// generator-backed Walker, or a fault-injecting wrapper around one.
type Stream interface {
	// Next fills *s with the next committed instruction.
	Next(s *Step)
}

// Walker executes a Program stochastically, producing the committed
// instruction stream. A Walker is deterministic given its seed. Multiple
// walkers with different seeds model the paper's independent measurement
// samples and the 16 cores running the same server workload.
type Walker struct {
	prog  *Program
	seed  int64
	src   *countingSource
	rng   *rand.Rand
	cur   int32 // current block index
	idx   int   // next instruction within the block
	stack []int32

	// Derived from (cur, idx), which is what a snapshot holds: the current
	// block's slices of the program's flat arrays, and the address of
	// instruction idx — a running address, since in variable-length mode it
	// is the sum of the sizes before it.
	kinds []isa.Kind
	sizes []uint8 // nil in fixed-length mode
	pc    isa.Addr

	dataHotBase  isa.Addr
	dataColdBase isa.Addr
}

// countingSource wraps the walker's PRNG source and counts draws. The
// stock math/rand generator does not expose its internal state, so the
// checkpoint subsystem snapshots a walker's randomness as (seed, draw
// count) and restores it by re-seeding and discarding that many draws —
// bit-exact, because every Int63/Uint64 call advances the underlying
// generator by exactly one step.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func (c *countingSource) Int63() int64 { c.draws++; return c.src.Int63() }

func (c *countingSource) Uint64() uint64 { c.draws++; return c.src.Uint64() }

func (c *countingSource) Seed(seed int64) { c.src.Seed(seed); c.draws = 0 }

// NewWalker returns a walker over prog seeded with seed, positioned at the
// entry of a dispatcher-chosen function.
func NewWalker(prog *Program, seed int64) *Walker {
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	w := &Walker{
		prog:         prog,
		seed:         seed,
		src:          src,
		rng:          rand.New(src),
		dataHotBase:  0x2_0000_0000,
		dataColdBase: 0x3_0000_0000,
		stack:        make([]int32, 0, 64),
	}
	w.dispatch()
	return w
}

// dispatch jumps to the entry of a new top-level function, modelling the
// server's main request loop picking up the next piece of work.
func (w *Walker) dispatch() {
	p := w.prog
	var fi int32
	if len(p.hot) > 0 && w.rng.Float64() < p.Params.HotCallProb {
		fi = p.hot[skewedIndex(w.rng, len(p.hot), p.Params.HotSkew)]
	} else {
		fi = int32(w.rng.Intn(len(p.Funcs)))
	}
	w.moveTo(p.Funcs[fi].First)
}

// Next advances one committed instruction, filling *s.
func (w *Walker) Next(s *Step) {
	p := w.prog
	kind := w.kinds[w.idx]
	size := uint8(isa.FixedSize)
	if w.sizes != nil {
		size = w.sizes[w.idx]
	}
	*s = Step{Inst: isa.Inst{PC: w.pc, Size: size, Kind: kind}}
	if kind == isa.KindLoad || kind == isa.KindStore {
		s.DataAddr = w.dataAddr()
	}

	if w.idx != len(w.kinds)-1 {
		// Advance within the block.
		w.idx++
		w.pc += isa.Addr(size)
		s.NextPC = w.pc
		return
	}
	blk := &p.Blocks[w.cur]
	if blk.Term == TermFall {
		w.moveTo(blk.Next)
		s.NextPC = w.pc
		return
	}
	s.Inst.Target = blk.target

	// Terminator outcomes.
	switch blk.Term {
	case TermCond:
		taken := w.rng.Float64() < blk.TakenProb
		s.Taken = taken
		if taken {
			w.moveTo(blk.TargetBB)
			s.TargetPC = w.pc
		} else {
			w.moveTo(blk.Next)
		}
	case TermJump:
		s.Taken = true
		w.moveTo(blk.TargetBB)
		s.TargetPC = w.pc
	case TermCall:
		if len(w.stack) >= p.Params.MaxCallDepth {
			// Elide the call (leaf inlining): continue at the return site.
			w.moveTo(blk.Next)
			break
		}
		s.Taken = true
		w.stack = append(w.stack, blk.Next)
		callee := blk.Callee
		if callee < 0 {
			callee = w.pickIndirectCallee(blk)
		}
		w.moveTo(p.Funcs[callee].First)
		s.TargetPC = w.pc
	case TermRet:
		s.Taken = true
		if n := len(w.stack); n > 0 {
			ret := w.stack[n-1]
			w.stack = w.stack[:n-1]
			if ret >= 0 {
				w.moveTo(ret)
			} else {
				w.dispatch()
			}
		} else {
			w.dispatch()
		}
		s.TargetPC = w.pc
	}
	s.NextPC = w.pc
}

// pickIndirectCallee selects among an indirect call site's candidates with a
// stable skew: the first candidate dominates, modelling mostly-monomorphic
// virtual dispatch.
func (w *Walker) pickIndirectCallee(blk *Block) int32 {
	callees := w.prog.calleesOf(blk)
	if len(callees) == 0 {
		return 0
	}
	if w.rng.Float64() < 0.7 {
		return callees[0]
	}
	return callees[w.rng.Intn(len(callees))]
}

// moveTo positions the walker at the start of a block. A negative index
// (possible only for a missing fallthrough) re-dispatches.
func (w *Walker) moveTo(bb int32) {
	if bb < 0 {
		w.dispatch()
		return
	}
	w.seek(bb, 0)
}

// seek positions the walker at instruction idx of a block and rebuilds what
// is derived from that position.
func (w *Walker) seek(bb int32, idx int) {
	blk := &w.prog.Blocks[bb]
	w.cur, w.idx = bb, idx
	w.kinds, w.sizes = w.prog.blockKinds(blk), w.prog.blockSizes(blk)
	w.pc = blk.entry + isa.Addr(idx)*isa.FixedSize
	if w.sizes != nil {
		w.pc = blk.entry
		for _, size := range w.sizes[:idx] {
			w.pc += isa.Addr(size)
		}
	}
}

// dataAddr synthesises a load/store effective address with a hot/cold skew.
func (w *Walker) dataAddr() isa.Addr {
	p := &w.prog.Params
	if w.rng.Float64() < p.DataHotProb {
		return w.dataHotBase + isa.Addr(w.rng.Intn(p.DataHotBytes))&^7
	}
	return w.dataColdBase + isa.Addr(w.rng.Intn(p.DataFootprintBytes))&^7
}

// CallDepth returns the current simulated call-stack depth.
func (w *Walker) CallDepth() int { return len(w.stack) }

// State walks one committed instruction (a core's or the oracle's fetched
// but undelivered step).
func (s *Step) State(c *checkpoint.Codec) {
	checkpoint.Word(c, &s.Inst.PC)
	c.U8(&s.Inst.Size)
	checkpoint.Byte(c, &s.Inst.Kind)
	checkpoint.Word(c, &s.Inst.Target)
	c.Bool(&s.Taken)
	checkpoint.Word(c, &s.NextPC)
	checkpoint.Word(c, &s.TargetPC)
	checkpoint.Word(c, &s.DataAddr)
}

// maxDrawsPerStep bounds the PRNG draws one Next call makes: a load or store
// draws twice, a terminator at most a taken test, an indirect-callee pick and
// a dispatch (three or four), and the library's rejection loops add a draw
// once in thousands. Measured runs average under one draw per step.
const maxDrawsPerStep = 8

// State walks the walker's position and randomness. The PRNG is captured as
// (seed, draw count); see countingSource. Loading re-seeds it and replays
// the draw count, so the restored stream continues bit-exactly; the walker
// must have been built over the same program with the same seed. maxSteps is
// the most Next calls the snapshotted run can have made: a draw count beyond
// what that many steps draw is corrupt, not replayed — the replay costs a
// generator step per draw, so an unchecked count read from a damaged file
// would spin for as long as the count says.
func (w *Walker) State(c *checkpoint.Codec, maxSteps uint64) {
	blocks := int64(len(w.prog.Blocks))
	c.Begin("walker")
	checkpoint.Same(c, "walker seed", w.seed, c.I64)
	draws, cur, idx := w.src.draws, int64(w.cur), w.idx
	c.U64(&draws)
	c.I64(&cur)
	c.Int(&idx)
	if c.Loading() && c.Err() == nil {
		switch {
		case draws/maxDrawsPerStep > maxSteps:
			c.Corrupt("walker drew %d times, a run of at most %d steps cannot have", draws, maxSteps)
		case cur < 0 || cur >= blocks:
			c.Corrupt("walker block index %d out of range", cur)
		case idx < 0 || idx >= w.prog.Blocks[cur].Len():
			c.Corrupt("walker instruction index %d out of range", idx)
		}
	}
	checkpoint.Slice(c, "walker call stack", &w.stack, 8, w.prog.Params.MaxCallDepth, func(bb *int32) {
		// A frame is a block to return to, or -1 where the call site had no
		// fallthrough (the return re-dispatches).
		v := int64(*bb)
		c.I64(&v)
		if v < -1 || v >= blocks {
			c.Corrupt("walker call-stack block index %d out of range", v)
		}
		*bb = int32(v)
	})
	c.End()
	if !c.Loading() || c.Err() != nil {
		return
	}
	w.src.Seed(w.seed)
	for i := uint64(0); i < draws; i++ {
		w.src.src.Uint64()
	}
	w.src.draws = draws
	w.seek(int32(cur), idx)
}
