package isa

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestKindPredicates(t *testing.T) {
	branches := []Kind{KindCondBranch, KindJump, KindCall, KindReturn, KindIndirect}
	for _, k := range branches {
		if !k.IsBranch() {
			t.Errorf("%v: IsBranch = false, want true", k)
		}
	}
	for _, k := range []Kind{KindALU, KindLoad, KindStore} {
		if k.IsBranch() {
			t.Errorf("%v: IsBranch = true, want false", k)
		}
		if k.IsUnconditional() {
			t.Errorf("%v: IsUnconditional = true, want false", k)
		}
	}
	if KindCondBranch.IsUnconditional() {
		t.Error("conditional branch reported unconditional")
	}
	for _, k := range []Kind{KindJump, KindCall, KindReturn, KindIndirect} {
		if !k.IsUnconditional() {
			t.Errorf("%v: IsUnconditional = false, want true", k)
		}
	}
	for _, k := range []Kind{KindCondBranch, KindJump, KindCall} {
		if !k.HasEncodedTarget() {
			t.Errorf("%v: HasEncodedTarget = false, want true", k)
		}
	}
	for _, k := range []Kind{KindReturn, KindIndirect, KindALU} {
		if k.HasEncodedTarget() {
			t.Errorf("%v: HasEncodedTarget = true, want false", k)
		}
	}
}

func TestBlockGeometry(t *testing.T) {
	if BlockOf(0) != 0 || BlockOf(63) != 0 || BlockOf(64) != 1 {
		t.Fatal("BlockOf miscomputed")
	}
	if BlockBase(3) != 192 {
		t.Fatalf("BlockBase(3) = %d, want 192", BlockBase(3))
	}
	if ByteOffset(0x1234) != 0x34&63 {
		t.Fatalf("ByteOffset wrong: %d", ByteOffset(0x1234))
	}
}

func TestFixedRoundTrip(t *testing.T) {
	cases := []Inst{
		{PC: 0x1000, Size: 4, Kind: KindALU},
		{PC: 0x1000, Size: 4, Kind: KindLoad},
		{PC: 0x1000, Size: 4, Kind: KindCondBranch, Target: 0x1040},
		{PC: 0x1000, Size: 4, Kind: KindCondBranch, Target: 0x0F00},
		{PC: 0x2000, Size: 4, Kind: KindJump, Target: 0x400000},
		{PC: 0x2000, Size: 4, Kind: KindCall, Target: 0x8},
		{PC: 0x2000, Size: 4, Kind: KindReturn},
		{PC: 0x2000, Size: 4, Kind: KindIndirect},
	}
	for _, in := range cases {
		buf := AppendInst(nil, Fixed, in)
		if len(buf) != FixedSize {
			t.Fatalf("%v: encoded %d bytes, want %d", in, len(buf), FixedSize)
		}
		out, ok := decode(Fixed, in.PC, buf)
		if !ok {
			t.Fatalf("%v: decode failed", in)
		}
		want := in
		if !want.Kind.HasEncodedTarget() {
			want.Target = 0
		}
		if out != want {
			t.Errorf("round trip: got %+v, want %+v", out, want)
		}
	}
}

func TestVariableRoundTrip(t *testing.T) {
	cases := []Inst{
		{PC: 0x1000, Size: 2, Kind: KindALU},
		{PC: 0x1000, Size: 10, Kind: KindStore},
		{PC: 0x1000, Size: 6, Kind: KindCondBranch, Target: 0x1100},
		{PC: 0x1000, Size: 8, Kind: KindCondBranch, Target: 0xF00},
		{PC: 0x5000, Size: 7, Kind: KindJump, Target: 0x9000},
		{PC: 0x5000, Size: 6, Kind: KindCall, Target: 0x100},
		{PC: 0x5000, Size: 2, Kind: KindReturn},
		{PC: 0x5000, Size: 3, Kind: KindIndirect},
	}
	for _, in := range cases {
		buf := AppendInst(nil, Variable, in)
		if len(buf) != int(in.Size) {
			t.Fatalf("%v: encoded %d bytes, want %d", in, len(buf), in.Size)
		}
		out, ok := decode(Variable, in.PC, buf)
		if !ok {
			t.Fatalf("%v: decode failed", in)
		}
		want := in
		if !want.Kind.HasEncodedTarget() {
			want.Target = 0
		}
		if out != want {
			t.Errorf("round trip: got %+v, want %+v", out, want)
		}
	}
}

func TestEncodedSizeOK(t *testing.T) {
	if EncodedSizeOK(Fixed, KindALU, 2) || !EncodedSizeOK(Fixed, KindALU, 4) {
		t.Error("fixed size rules wrong")
	}
	if EncodedSizeOK(Variable, KindCondBranch, 4) {
		t.Error("variable branch of size 4 must be illegal (needs 6+)")
	}
	if !EncodedSizeOK(Variable, KindCondBranch, 6) {
		t.Error("variable branch of size 6 must be legal")
	}
	if EncodedSizeOK(Variable, KindALU, 1) || EncodedSizeOK(Variable, KindALU, 11) {
		t.Error("variable size bounds wrong")
	}
}

// quickInst generates a random legal instruction for property tests.
func quickInst(r *rand.Rand, mode Mode) Inst {
	kind := Kind(r.Intn(int(numKinds)))
	pc := Addr(r.Intn(1<<20)) + 0x10000
	var size uint8
	if mode == Fixed {
		pc &^= FixedSize - 1
		size = FixedSize
	} else {
		size = uint8(VarMinSize + r.Intn(VarMaxSize-VarMinSize+1))
		if kind.HasEncodedTarget() && size < VarBranchMinSize {
			size = VarBranchMinSize
		}
	}
	inst := Inst{PC: pc, Size: size, Kind: kind}
	if kind.HasEncodedTarget() {
		t := int64(pc) + int64(r.Intn(1<<18)) - (1 << 17)
		if t < 0 {
			t = 0
		}
		if mode == Fixed {
			t = (t / 4) * 4
		}
		inst.Target = Addr(t)
	}
	return inst
}

func TestQuickRoundTrip(t *testing.T) {
	for _, mode := range []Mode{Fixed, Variable} {
		mode := mode
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			in := quickInst(r, mode)
			buf := AppendInst(nil, mode, in)
			out, ok := decode(mode, in.PC, buf)
			if !ok {
				return false
			}
			want := in
			if !want.Kind.HasEncodedTarget() {
				want.Target = 0
			}
			return out == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%v mode: %v", mode, err)
		}
	}
}

// buildFixedImage assembles the instructions back to back from base, as the
// workload generator does, so the image carries the branch index.
func buildFixedImage(t *testing.T, base Addr, insts []Inst) *Image {
	t.Helper()
	a := NewAssembler(Fixed, base, len(insts)*FixedSize, 0)
	pc := base
	for i := range insts {
		insts[i].PC = pc
		insts[i].Size = FixedSize
		a.Block(pc, []Kind{insts[i].Kind}, nil, insts[i].Target)
		pc += FixedSize
	}
	return a.Image()
}

// TestAssemblerIndexIsTheDecode: an assembled image holds the bytes
// AppendInst writes for the same instructions, and in Fixed mode its branch
// index answers every PredecodeBlock and DecodeBranchAt probe as decoding
// those bytes does, partial first and last blocks included; a Variable-mode
// image has no index.
func TestAssemblerIndexIsTheDecode(t *testing.T) {
	for _, mode := range []Mode{Fixed, Variable} {
		r := rand.New(rand.NewSource(3))
		base := Addr(0x10_0024) // mid-block, so the first block is partial
		var insts []Inst
		var ref []byte
		pc := base
		for i := 0; i < 2000; i++ {
			in := quickInst(r, mode)
			in.Target += pc - in.PC
			in.PC = pc
			insts = append(insts, in)
			ref = AppendInst(ref, mode, in)
			pc = in.NextPC()
		}
		a := NewAssembler(mode, base, len(ref), 0)
		for _, in := range insts {
			sizes := []uint8{in.Size}
			if mode == Fixed {
				sizes = nil
			}
			a.Block(in.PC, []Kind{in.Kind}, sizes, in.Target)
		}
		im := a.Image()
		if !bytes.Equal(im.Code, ref) {
			t.Fatalf("%v: assembled bytes differ from AppendInst's", mode)
		}
		if (im.pdStart != nil) != (mode == Fixed) {
			t.Fatalf("%v: index present = %v", mode, im.pdStart != nil)
		}
		raw := NewImage(mode, base, ref)
		for b := BlockOf(base); b <= BlockOf(im.End()-1); b++ {
			if got, want := PredecodeBlock(im, b), PredecodeBlock(raw, b); !slices.Equal(got, want) {
				t.Fatalf("%v block %#x: index %+v, decode %+v", mode, b, got, want)
			}
			for off := 0; off < BlockBytes; off++ {
				got, gotOK := DecodeBranchAt(im, b, uint8(off))
				want, wantOK := DecodeBranchAt(raw, b, uint8(off))
				if got != want || gotOK != wantOK {
					t.Fatalf("%v block %#x offset %d: index %+v %v, decode %+v %v", mode, b, off, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

// TestAssemblerRefusesMisuse: the assembler panics rather than write an
// image whose addresses, length or alignment are not the ones it promised.
func TestAssemblerRefusesMisuse(t *testing.T) {
	alu := []Kind{KindALU, KindALU}
	for name, f := range map[string]func(){
		"block at the wrong address": func() {
			a := NewAssembler(Fixed, 0x1000, 16, 0)
			a.Block(0x1004, alu, nil, 0)
		},
		"block past the end": func() {
			a := NewAssembler(Fixed, 0x1000, 4, 0)
			a.Block(0x1000, alu, nil, 0)
		},
		"variable instruction past the end": func() {
			a := NewAssembler(Variable, 0x1000, 5, 0)
			a.Block(0x1000, alu, []uint8{3, 3}, 0)
		},
		"image not filled": func() {
			a := NewAssembler(Fixed, 0x1000, 16, 0)
			a.Block(0x1000, alu, nil, 0)
			a.Image()
		},
		"fixed base off a slot": func() { NewAssembler(Fixed, 0x1002, 16, 0) },
		"branch delta past 24 bits": func() {
			a := NewAssembler(Fixed, 0x1000, 4, 1)
			a.Block(0x1000, []Kind{KindJump}, nil, 0x1000+4<<23)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPredecodeFixedBlock(t *testing.T) {
	// One block: 16 slots, branches at slots 3, 7, 15.
	insts := make([]Inst, 16)
	for i := range insts {
		insts[i].Kind = KindALU
	}
	insts[3] = Inst{Kind: KindCondBranch, Target: 0x40}
	insts[7] = Inst{Kind: KindCall, Target: 0x80}
	insts[15] = Inst{Kind: KindReturn}
	im := buildFixedImage(t, 0x1000, insts)

	brs := PredecodeBlock(im, BlockOf(0x1000))
	if len(brs) != 3 {
		t.Fatalf("got %d branches, want 3: %+v", len(brs), brs)
	}
	wantOff := []uint8{12, 28, 60}
	wantKind := []Kind{KindCondBranch, KindCall, KindReturn}
	for i, br := range brs {
		if br.Offset != wantOff[i] || br.Kind != wantKind[i] {
			t.Errorf("branch %d: got off=%d kind=%v, want off=%d kind=%v",
				i, br.Offset, br.Kind, wantOff[i], wantKind[i])
		}
	}
	if brs[0].Target != 0x40 {
		t.Errorf("cond target = %#x, want 0x40", brs[0].Target)
	}
}

func TestPredecodeVariableReturnsNil(t *testing.T) {
	im := NewImage(Variable, 0x1000, make([]byte, 256))
	if got := PredecodeBlock(im, BlockOf(0x1000)); got != nil {
		t.Fatalf("variable-mode PredecodeBlock = %v, want nil", got)
	}
}

func TestDecodeBranchAt(t *testing.T) {
	var code []byte
	base := Addr(0x2000)
	// alu(2) alu(3) condbranch(6)@offset5 ret(2)@offset11
	seq := []Inst{
		{PC: base, Size: 2, Kind: KindALU},
		{PC: base + 2, Size: 3, Kind: KindALU},
		{PC: base + 5, Size: 6, Kind: KindCondBranch, Target: 0x2100},
		{PC: base + 11, Size: 2, Kind: KindReturn},
	}
	for _, in := range seq {
		code = AppendInst(code, Variable, in)
	}
	im := NewImage(Variable, base, code)
	b := BlockOf(base)

	br, ok := DecodeBranchAt(im, b, 5)
	if !ok || br.Kind != KindCondBranch || br.Target != 0x2100 {
		t.Fatalf("DecodeBranchAt(5) = %+v, %v", br, ok)
	}
	br, ok = DecodeBranchAt(im, b, 11)
	if !ok || br.Kind != KindReturn {
		t.Fatalf("DecodeBranchAt(11) = %+v, %v", br, ok)
	}
	// A stale offset pointing at a non-branch must report no branch.
	if _, ok := DecodeBranchAt(im, b, 0); ok {
		t.Error("DecodeBranchAt(0) found a branch in an ALU op")
	}
}

func TestDecodeStraddlingBlockBoundary(t *testing.T) {
	// Place a 6-byte branch starting 2 bytes before a block boundary.
	base := Addr(0x3000 + 62 - 8)
	var code []byte
	pcs := []Inst{
		{PC: base, Size: 8, Kind: KindALU},
		{PC: base + 8, Size: 6, Kind: KindJump, Target: 0x4000},
	}
	for _, in := range pcs {
		code = AppendInst(code, Variable, in)
	}
	im := NewImage(Variable, base, code)
	br, ok := DecodeBranchAt(im, BlockOf(base+8), uint8(ByteOffset(base+8)))
	if !ok || br.Kind != KindJump || br.Target != 0x4000 {
		t.Fatalf("straddling decode failed: %+v %v", br, ok)
	}
}

func TestImageBlockPadding(t *testing.T) {
	im := NewImage(Fixed, 0x20, []byte{1, 2, 3, 4})
	blk := im.Block(0)
	if blk == nil || len(blk) != BlockBytes {
		t.Fatalf("Block = len %d, want %d", len(blk), BlockBytes)
	}
	if blk[0x20] != 1 || blk[0x23] != 4 || blk[0] != 0 || blk[0x24] != 0 {
		t.Errorf("padding wrong: % x", blk)
	}
	if im.Block(5) != nil {
		t.Error("out-of-image block should be nil")
	}
}

func TestBFAddAndPack(t *testing.T) {
	var f BF
	f.Add(12)
	f.Add(30)
	f.Add(12) // duplicate ignored
	f.Add(45)
	f.Add(61)
	f.Add(7) // fifth distinct offset dropped
	if f.Count != 4 {
		t.Fatalf("Count = %d, want 4", f.Count)
	}
	got := UnpackBF(f.Pack())
	if got != f {
		t.Errorf("pack round trip: got %+v, want %+v", got, f)
	}
}

func TestBFPackQuick(t *testing.T) {
	f := func(raw [4]uint8, count uint8) bool {
		var bf BF
		n := int(count % (MaxBFBranches + 1))
		seen := map[uint8]bool{}
		for i := 0; i < n; i++ {
			off := raw[i] & 0x3F
			if seen[off] {
				continue
			}
			seen[off] = true
			bf.Add(off)
		}
		return UnpackBF(bf.Pack()) == bf
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFootprintOfFixed(t *testing.T) {
	insts := make([]Inst, 16)
	for i := range insts {
		insts[i].Kind = KindALU
	}
	for _, slot := range []int{1, 4, 6, 9, 13, 14} {
		insts[slot] = Inst{Kind: KindCondBranch, Target: 0x40}
	}
	im := buildFixedImage(t, 0x4000, insts)
	bf, overflow := FootprintOf(im, BlockOf(0x4000), 4, nil)
	if bf.Count != 4 || overflow != 2 {
		t.Fatalf("FootprintOf: count=%d overflow=%d, want 4, 2", bf.Count, overflow)
	}
	bf, overflow = FootprintOf(im, BlockOf(0x4000), 2, nil)
	if bf.Count != 2 || overflow != 4 {
		t.Fatalf("FootprintOf cap 2: count=%d overflow=%d, want 2, 4", bf.Count, overflow)
	}
}

func TestFootprintOfVariableUsesKnownOffsets(t *testing.T) {
	base := Addr(0x5000)
	var code []byte
	seq := []Inst{
		{PC: base, Size: 4, Kind: KindALU},
		{PC: base + 4, Size: 6, Kind: KindCondBranch, Target: 0x5100},
		{PC: base + 10, Size: 2, Kind: KindALU},
		{PC: base + 12, Size: 2, Kind: KindReturn},
	}
	for _, in := range seq {
		code = AppendInst(code, Variable, in)
	}
	im := NewImage(Variable, base, code)
	// Known offsets include one stale non-branch offset (0) that must be
	// filtered out by byte validation.
	bf, overflow := FootprintOf(im, BlockOf(base), 4, []uint8{0, 4, 12})
	if overflow != 0 || bf.Count != 2 {
		t.Fatalf("bf=%+v overflow=%d, want 2 valid offsets", bf, overflow)
	}
	if bf.Off[0] != 4 || bf.Off[1] != 12 {
		t.Errorf("offsets = %v, want [4 12]", bf.Offsets())
	}
}

func TestModeHelpers(t *testing.T) {
	if Fixed.String() != "fixed" || Variable.String() != "variable" {
		t.Error("mode names wrong")
	}
	if Fixed.MinSize() != 4 || Variable.MinSize() != 2 {
		t.Error("min sizes wrong")
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindALU; k < numKinds; k++ {
		if k.String() == "?" {
			t.Errorf("kind %d has no mnemonic", k)
		}
	}
	if Kind(200).String() != "?" {
		t.Error("unknown kind must render '?'")
	}
}

func TestInstHelpers(t *testing.T) {
	i := Inst{PC: 0x100, Size: 6, Kind: KindCondBranch, Target: 0x200}
	if i.NextPC() != 0x106 || !i.IsBranch() {
		t.Errorf("helpers wrong: %+v", i)
	}
}

func TestImageBoundaries(t *testing.T) {
	im := NewImage(Fixed, 0x100, make([]byte, 128))
	if im.End() != 0x180 {
		t.Fatalf("End = %#x", im.End())
	}
	if im.Contains(0xFF) || !im.Contains(0x100) || !im.Contains(0x17F) || im.Contains(0x180) {
		t.Fatal("Contains bounds wrong")
	}
	if im.BytesAt(0x90, 8) != nil {
		t.Fatal("BytesAt outside image returned data")
	}
	if got := im.BytesAt(0x17C, 100); len(got) != 4 {
		t.Fatalf("BytesAt clipped to %d, want 4", len(got))
	}
	if !im.ContainsBlock(BlockOf(0x100)) || im.ContainsBlock(BlockOf(0x180)) {
		t.Fatal("ContainsBlock bounds wrong")
	}
	// A block straddling the image start is still contained.
	im2 := NewImage(Fixed, 0x120, make([]byte, 64))
	if !im2.ContainsBlock(BlockOf(0x100)) {
		t.Fatal("partially covered block not contained")
	}
}

func TestDecodeAtOutsideImage(t *testing.T) {
	im := NewImage(Fixed, 0x100, make([]byte, 64))
	if _, ok := im.DecodeAt(0x90); ok {
		t.Fatal("decoded outside the image")
	}
}

func TestBFOffsetsCopy(t *testing.T) {
	var f BF
	f.Add(5)
	offs := f.Offsets()
	offs[0] = 99
	if f.Off[0] != 5 {
		t.Fatal("Offsets aliased internal storage")
	}
}
