package cfg

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dnc/internal/checkpoint"
	"dnc/internal/isa"
)

func testParams(mode isa.Mode) Params {
	return Params{
		Name:           "test",
		Mode:           mode,
		FootprintBytes: 256 << 10,
		GenSeed:        42,
		LoadFrac:       0.2,
		StoreFrac:      0.1,
		RareBlockFrac:  0.08,
		BackwardFrac:   0.1,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(testParams(isa.Fixed))
	b := Generate(testParams(isa.Fixed))
	if len(a.Blocks) != len(b.Blocks) || len(a.Funcs) != len(b.Funcs) {
		t.Fatalf("structure differs: %d/%d blocks, %d/%d funcs",
			len(a.Blocks), len(b.Blocks), len(a.Funcs), len(b.Funcs))
	}
	if len(a.Image.Code) != len(b.Image.Code) {
		t.Fatalf("image sizes differ: %d vs %d", len(a.Image.Code), len(b.Image.Code))
	}
	for i := range a.Image.Code {
		if a.Image.Code[i] != b.Image.Code[i] {
			t.Fatalf("image bytes differ at %d", i)
		}
	}
}

func TestGenerateFootprint(t *testing.T) {
	for _, mode := range []isa.Mode{isa.Fixed, isa.Variable} {
		p := testParams(mode)
		prog := Generate(p)
		got := len(prog.Image.Code)
		if got < p.FootprintBytes*85/100 || got > p.FootprintBytes*3/2 {
			t.Errorf("%v: footprint %d, want roughly %d", mode, got, p.FootprintBytes)
		}
	}
}

func TestLayoutContiguousAndDecodable(t *testing.T) {
	for _, mode := range []isa.Mode{isa.Fixed, isa.Variable} {
		prog := Generate(testParams(mode))
		pc := prog.Params.CodeBase
		for bi := range prog.Blocks {
			blk := &prog.Blocks[bi]
			insts := prog.Insts(int32(bi))
			if len(insts) == 0 || len(insts) != blk.Len() {
				t.Fatalf("%v: block %d materializes %d instructions, Len() = %d", mode, bi, len(insts), blk.Len())
			}
			if blk.Entry() != pc {
				t.Fatalf("%v: block %d enters at %#x, expected %#x", mode, bi, blk.Entry(), pc)
			}
			for j, inst := range insts {
				if isTerm := blk.Term != TermFall && j == len(insts)-1; !isTerm && (inst.Target != 0 || inst.Kind.IsBranch()) {
					t.Fatalf("%v: block %d: body instruction %d is %+v", mode, bi, j, inst)
				}
				if inst.PC != pc {
					t.Fatalf("%v: block %d inst at %#x, expected %#x", mode, bi, inst.PC, pc)
				}
				dec, ok := prog.Image.DecodeAt(pc)
				if !ok {
					t.Fatalf("%v: cannot decode at %#x", mode, pc)
				}
				if dec.Kind != inst.Kind || dec.Size != inst.Size {
					t.Fatalf("%v: decode mismatch at %#x: %+v vs %+v", mode, pc, dec, inst)
				}
				if inst.Kind.HasEncodedTarget() && dec.Target != inst.Target {
					t.Fatalf("%v: target mismatch at %#x: %#x vs %#x", mode, pc, dec.Target, inst.Target)
				}
				pc += isa.Addr(inst.Size)
			}
		}
		if pc != prog.Image.End() {
			t.Fatalf("%v: image length mismatch: pc=%#x end=%#x", mode, pc, prog.Image.End())
		}
	}
}

func TestTerminatorInvariants(t *testing.T) {
	prog := Generate(testParams(isa.Fixed))
	for fi := range prog.Funcs {
		fn := &prog.Funcs[fi]
		last := &prog.Blocks[fn.Last]
		if last.Term != TermRet {
			t.Fatalf("func %d: last block terminator = %v, want ret", fi, last.Term)
		}
		for bi := fn.First; bi <= fn.Last; bi++ {
			blk := &prog.Blocks[bi]
			if blk.Func != int32(fi) {
				t.Fatalf("block %d owner = %d, want %d", bi, blk.Func, fi)
			}
			switch blk.Term {
			case TermCond, TermJump:
				if blk.TargetBB < fn.First || blk.TargetBB > fn.Last {
					t.Fatalf("block %d: target %d outside func [%d,%d]",
						bi, blk.TargetBB, fn.First, fn.Last)
				}
			case TermCall:
				if blk.Callee >= 0 && int(blk.Callee) >= len(prog.Funcs) {
					t.Fatalf("block %d: callee %d out of range", bi, blk.Callee)
				}
				if indirect := blk.Callee < 0; indirect != (len(prog.Callees(bi)) > 0) {
					t.Fatalf("block %d: callee %d with candidates %v", bi, blk.Callee, prog.Callees(bi))
				}
				for _, c := range prog.Callees(bi) {
					if c < 0 || int(c) >= len(prog.Funcs) {
						t.Fatalf("block %d: candidate callee %d out of range", bi, c)
					}
				}
			}
			if blk.Term != TermCall && len(prog.Callees(bi)) != 0 {
				t.Fatalf("block %d: %v with call candidates %v", bi, blk.Term, prog.Callees(bi))
			}
			if bi < fn.Last && blk.Next != bi+1 {
				t.Fatalf("block %d: next = %d, want %d", bi, blk.Next, bi+1)
			}
			term, ok := prog.Terminator(bi)
			if blk.Term == TermFall {
				if ok {
					t.Fatalf("block %d: fallthrough with terminator %v", bi, term)
				}
				continue
			}
			if !ok || !term.Kind.IsBranch() {
				t.Fatalf("block %d: terminator %v for %v", bi, term.Kind, blk.Term)
			}
			// The derived target is the address the successor was laid out at.
			want := isa.Addr(0)
			switch {
			case blk.Term == TermCond || blk.Term == TermJump:
				want = prog.Blocks[blk.TargetBB].Entry()
			case blk.Term == TermCall && blk.Callee >= 0:
				want = prog.Blocks[prog.Funcs[blk.Callee].First].Entry()
			}
			if term.Target != want || term.Kind.HasEncodedTarget() != (want != 0) {
				t.Fatalf("block %d: %v terminator %+v, want target %#x", bi, blk.Term, term, want)
			}
		}
	}
}

// TestProgramIsFlat pins the representation: a block is a small pointer-free
// record, and nothing reachable from a Program holds an instruction record
// per instruction.
func TestProgramIsFlat(t *testing.T) {
	if size := reflect.TypeOf(Block{}).Size(); size > 56 {
		t.Errorf("Block is %d bytes, want at most 56", size)
	}
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string, inBlock bool)
	walk = func(ty reflect.Type, path string, inBlock bool) {
		if ty == reflect.TypeOf([]isa.Inst(nil)) {
			t.Errorf("%s is a []isa.Inst", path)
		}
		if seen[ty] {
			return
		}
		seen[ty] = true
		inBlock = inBlock || ty == reflect.TypeOf(Block{})
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name, inBlock)
			}
		case reflect.Map:
			walk(ty.Key(), path+"[key]", inBlock)
			fallthrough
		case reflect.Pointer, reflect.Slice, reflect.Array:
			if inBlock && ty.Kind() != reflect.Array {
				t.Errorf("%s: a Block holds a %v", path, ty.Kind())
			}
			walk(ty.Elem(), path+"[]", inBlock)
		case reflect.String, reflect.Interface, reflect.Chan, reflect.Func, reflect.UnsafePointer:
			if inBlock {
				t.Errorf("%s: a Block holds a %v", path, ty.Kind())
			}
		}
	}
	walk(reflect.TypeOf(Program{}), "Program", false)
}

// TestGenerateRefusesOverlongBlocks: a block's length is stored in 16 bits;
// parameters that allow a longer block are refused by name, not wrapped.
func TestGenerateRefusesOverlongBlocks(t *testing.T) {
	p := testParams(isa.Fixed)
	p.FootprintBytes = 4 << 10
	p.AvgBlockInsts = maxBlockInsts / 2 // the longest block just fits
	prog := Generate(p)
	total, longest := 0, 0
	for i := range prog.Blocks {
		total += prog.Blocks[i].Len()
		longest = max(longest, prog.Blocks[i].Len())
	}
	if total != prog.NumInsts() || longest <= maxBlockInsts/2 {
		t.Fatalf("blocks hold %d instructions (longest %d) of the program's %d", total, longest, prog.NumInsts())
	}

	p.AvgBlockInsts++
	defer func() {
		err, _ := recover().(error)
		if err == nil || !strings.Contains(err.Error(), "AvgBlockInsts = 32768") {
			t.Fatalf("Generate with AvgBlockInsts = %d: recovered %v, want an error naming it", p.AvgBlockInsts, err)
		}
	}()
	Generate(p)
	t.Fatal("generated a program whose blocks can outgrow the block record")
}

func TestWalkerStreamConsistency(t *testing.T) {
	for _, mode := range []isa.Mode{isa.Fixed, isa.Variable} {
		prog := Generate(testParams(mode))
		w := NewWalker(prog, 7)
		var s Step
		prevNext := isa.Addr(0)
		for i := 0; i < 200000; i++ {
			w.Next(&s)
			if prevNext != 0 && s.Inst.PC != prevNext {
				t.Fatalf("%v: step %d: PC %#x does not follow previous NextPC %#x",
					mode, i, s.Inst.PC, prevNext)
			}
			prevNext = s.NextPC
			if !s.Inst.Kind.IsBranch() && s.NextPC != s.Inst.NextPC() {
				t.Fatalf("%v: non-branch with control transfer at %#x", mode, s.Inst.PC)
			}
			if s.Inst.Kind == isa.KindCondBranch && !s.Taken && s.NextPC != s.Inst.NextPC() {
				t.Fatalf("%v: not-taken branch did not fall through at %#x", mode, s.Inst.PC)
			}
			if s.Taken && s.Inst.Kind.HasEncodedTarget() && s.NextPC != s.Inst.Target {
				t.Fatalf("%v: taken direct branch to %#x, encoded target %#x",
					mode, s.NextPC, s.Inst.Target)
			}
			if (s.Inst.Kind == isa.KindLoad || s.Inst.Kind == isa.KindStore) && s.DataAddr == 0 {
				t.Fatalf("%v: memory op without data address", mode)
			}
		}
	}
}

func TestWalkerDeterminism(t *testing.T) {
	prog := Generate(testParams(isa.Fixed))
	w1 := NewWalker(prog, 11)
	w2 := NewWalker(prog, 11)
	var s1, s2 Step
	for i := 0; i < 50000; i++ {
		w1.Next(&s1)
		w2.Next(&s2)
		if s1 != s2 {
			t.Fatalf("step %d differs: %+v vs %+v", i, s1, s2)
		}
	}
}

// TestWalkerRestoreMidBlock: a snapshot holds (block, index); the address of
// that instruction is rebuilt on load — in variable-length mode by summing
// the sizes before it. A walker loaded at every index of a long block must
// continue exactly as the one that kept walking.
func TestWalkerRestoreMidBlock(t *testing.T) {
	for _, mode := range []isa.Mode{isa.Fixed, isa.Variable} {
		prog := Generate(testParams(mode))
		const seed = 13
		w := NewWalker(prog, seed)
		var s Step
		steps := 0
		for w.idx != 0 || prog.Blocks[w.cur].Len() < 12 {
			w.Next(&s)
			if steps++; steps > 1_000_000 {
				t.Fatalf("%v: no long block entered in %d steps", mode, steps)
			}
		}
		blk, n := w.cur, prog.Blocks[w.cur].Len()
		for idx := 0; idx < n; idx++ {
			if w.cur != blk || w.idx != idx {
				t.Fatalf("%v: walker at (%d, %d), expected (%d, %d)", mode, w.cur, w.idx, blk, idx)
			}
			snap := checkpoint.Save(nil, func(c *checkpoint.Codec) { w.State(c, 0) })
			loaded := NewWalker(prog, seed)
			if err := checkpoint.Load(snap, func(c *checkpoint.Codec) { loaded.State(c, 1<<20) }); err != nil {
				t.Fatalf("%v: loading at index %d: %v", mode, w.idx, err)
			}
			straight := NewWalker(prog, seed)
			for i := 0; i < steps; i++ {
				straight.Next(&s)
			}
			var got, want Step
			for i := 0; i < 1000; i++ {
				loaded.Next(&got)
				straight.Next(&want)
				if got != want {
					t.Fatalf("%v: restored at index %d of %d: step %d is %+v, the straight walk's %+v",
						mode, idx, n, i, got, want)
				}
			}
			w.Next(&s)
			steps++
		}
	}
}

func TestWalkerSeedsDiffer(t *testing.T) {
	prog := Generate(testParams(isa.Fixed))
	w1 := NewWalker(prog, 1)
	w2 := NewWalker(prog, 2)
	var s1, s2 Step
	same := 0
	for i := 0; i < 1000; i++ {
		w1.Next(&s1)
		w2.Next(&s2)
		if s1.Inst.PC == s2.Inst.PC {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestBranchBiasObserved(t *testing.T) {
	prog := Generate(testParams(isa.Fixed))
	w := NewWalker(prog, 3)
	taken := map[isa.Addr]int{}
	total := map[isa.Addr]int{}
	var s Step
	for i := 0; i < 500000; i++ {
		w.Next(&s)
		if s.Inst.Kind == isa.KindCondBranch {
			total[s.Inst.PC]++
			if s.Taken {
				taken[s.Inst.PC]++
			}
		}
	}
	// Most conditional branches with enough samples should be strongly
	// biased (StableBiasFrac defaults to 0.85).
	biased, sampled := 0, 0
	for pc, n := range total {
		if n < 50 {
			continue
		}
		sampled++
		r := float64(taken[pc]) / float64(n)
		if r > 0.85 || r < 0.15 {
			biased++
		}
	}
	if sampled == 0 {
		t.Fatal("no branches sampled")
	}
	frac := float64(biased) / float64(sampled)
	if frac < 0.6 {
		t.Errorf("only %.2f of sampled branches strongly biased, want >= 0.6", frac)
	}
}

func TestRareBlocksAreRare(t *testing.T) {
	prog := Generate(testParams(isa.Fixed))
	nRare := 0
	for i := range prog.Blocks {
		if prog.Blocks[i].Rare {
			nRare++
		}
	}
	if nRare == 0 {
		t.Skip("no rare blocks generated with this seed")
	}
	w := NewWalker(prog, 5)
	var s Step
	rareExec, totalExec := 0, 0
	enter := map[isa.Addr]bool{}
	for i := range prog.Blocks {
		if prog.Blocks[i].Rare {
			enter[prog.Blocks[i].Entry()] = true
		}
	}
	allEntries := map[isa.Addr]bool{}
	for i := range prog.Blocks {
		allEntries[prog.Blocks[i].Entry()] = true
	}
	for i := 0; i < 500000; i++ {
		w.Next(&s)
		if allEntries[s.Inst.PC] {
			totalExec++
			if enter[s.Inst.PC] {
				rareExec++
			}
		}
	}
	staticFrac := float64(nRare) / float64(len(prog.Blocks))
	dynFrac := float64(rareExec) / float64(totalExec)
	if dynFrac > staticFrac/2 {
		t.Errorf("rare blocks executed at %.4f of block entries (static fraction %.4f); guards ineffective",
			dynFrac, staticFrac)
	}
}

func TestCallDepthBounded(t *testing.T) {
	p := testParams(isa.Fixed)
	p.MaxCallDepth = 8
	prog := Generate(p)
	w := NewWalker(prog, 9)
	var s Step
	for i := 0; i < 300000; i++ {
		w.Next(&s)
		if w.CallDepth() > 8 {
			t.Fatalf("call depth %d exceeds bound", w.CallDepth())
		}
	}
}

func TestNumInsts(t *testing.T) {
	prog := Generate(testParams(isa.Fixed))
	n := prog.NumInsts()
	if n*isa.FixedSize != len(prog.Image.Code) {
		t.Fatalf("NumInsts=%d but image has %d bytes", n, len(prog.Image.Code))
	}
}

func TestStaticStats(t *testing.T) {
	p := testParams(isa.Fixed)
	prog := Generate(p)
	s := prog.Stats()
	if s.Functions != len(prog.Funcs) || s.BasicBlocks != len(prog.Blocks) {
		t.Fatalf("structure counts wrong: %+v", s)
	}
	if s.Instructions != prog.NumInsts() {
		t.Fatalf("instruction count mismatch: %d vs %d", s.Instructions, prog.NumInsts())
	}
	total := s.CondFrac + s.JumpFrac + s.CallFrac + s.RetFrac + s.FallFrac
	if total < 0.999 || total > 1.001 {
		t.Fatalf("terminator fractions sum to %v", total)
	}
	// The requested conditional fraction applies to non-final blocks, so
	// the measured value sits near (mostly below) the defaulted knob.
	knob := prog.Params.CondFrac
	if s.CondFrac < knob/2 || s.CondFrac > knob*1.3 {
		t.Errorf("cond fraction %.2f far from knob %.2f", s.CondFrac, knob)
	}
	// The histogram covers every code block.
	sum := 0
	for _, n := range s.BranchesPerBlockHist {
		sum += n
	}
	want := (len(prog.Image.Code) + isa.BlockBytes - 1) / isa.BlockBytes
	if sum != want {
		t.Fatalf("histogram covers %d blocks, want %d", sum, want)
	}
	if s.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestImageDecodeRobustAgainstGarbage(t *testing.T) {
	// A pre-decoder probing arbitrary offsets must never panic, whatever
	// bytes it reads.
	rng := rand.New(rand.NewSource(7))
	raw := make([]byte, 4096)
	rng.Read(raw)
	for _, mode := range []isa.Mode{isa.Fixed, isa.Variable} {
		im := isa.NewImage(mode, 0x1000, raw)
		for off := 0; off < 256; off++ {
			isa.DecodeBranchAt(im, isa.BlockOf(0x1000), uint8(off%64))
			im.DecodeAt(0x1000 + isa.Addr(off))
		}
		isa.PredecodeBlock(im, isa.BlockOf(0x1000))
	}
}
