package prefetch

import (
	"testing"

	"dnc/internal/btb"
	"dnc/internal/isa"
)

// buildLinearImage lays out fixed-mode code: a run of ALU blocks ending in
// a jump to target at the given slot of the last block.
func buildLinearImage(base isa.Addr, blocks int, jumpSlot int, target isa.Addr) *isa.Image {
	var code []byte
	n := blocks * isa.BlockBytes / isa.FixedSize
	for i := 0; i < n; i++ {
		inst := isa.Inst{PC: base + isa.Addr(i*isa.FixedSize), Size: isa.FixedSize, Kind: isa.KindALU}
		if i == (blocks-1)*16+jumpSlot {
			inst.Kind = isa.KindJump
			inst.Target = target
		}
		code = isa.AppendInst(code, isa.Fixed, inst)
	}
	return isa.NewImage(isa.Fixed, base, code)
}

func TestBBRecorderDelimitsBlocks(t *testing.T) {
	var got []struct {
		start isa.Addr
		e     btb.BBEntry
	}
	rec := newBBRecorder(0, func(start isa.Addr, e btb.BBEntry) {
		got = append(got, struct {
			start isa.Addr
			e     btb.BBEntry
		}{start, e})
	})

	// alu, alu, taken branch -> one BB of 12 bytes.
	rec.retire(isa.Inst{PC: 0x100, Size: 4, Kind: isa.KindALU}, false, 0)
	rec.retire(isa.Inst{PC: 0x104, Size: 4, Kind: isa.KindALU}, false, 0)
	rec.retire(isa.Inst{PC: 0x108, Size: 4, Kind: isa.KindCondBranch, Target: 0x200}, true, 0x200)
	if len(got) != 1 {
		t.Fatalf("emitted %d blocks", len(got))
	}
	if got[0].start != 0x100 || got[0].e.Size != 12 || got[0].e.BranchPC != 0x108 ||
		got[0].e.Target != 0x200 || got[0].e.Kind != isa.KindCondBranch {
		t.Fatalf("bb = %+v", got[0])
	}

	// The next BB starts at the taken target.
	rec.retire(isa.Inst{PC: 0x200, Size: 4, Kind: isa.KindReturn}, true, 0x10C)
	if len(got) != 2 || got[1].start != 0x200 || got[1].e.Kind != isa.KindReturn {
		t.Fatalf("second bb = %+v", got[len(got)-1])
	}
	// Returns record the observed target.
	if got[1].e.Target != 0x10C {
		t.Fatalf("return target = %#x", got[1].e.Target)
	}
}

func TestBBRecorderSplitsLongRuns(t *testing.T) {
	var sizes []uint16
	rec := newBBRecorder(64, func(_ isa.Addr, e btb.BBEntry) { sizes = append(sizes, e.Size) })
	for i := 0; i < 40; i++ {
		rec.retire(isa.Inst{PC: isa.Addr(0x1000 + i*4), Size: 4, Kind: isa.KindALU}, false, 0)
	}
	if len(sizes) == 0 {
		t.Fatal("long straight-line run never split")
	}
	for _, s := range sizes {
		if s != 64 {
			t.Fatalf("split size = %d, want 64", s)
		}
	}
}

func TestBBFromPredecode(t *testing.T) {
	im := buildBranchImage(0x1000, 0x2000) // cond branch at slot 3 (offset 12)
	brs := isa.PredecodeBlock(im, isa.BlockOf(0x1000))

	// From the block start: BB covers through the branch.
	e := bbFromPredecode(0x1000, brs)
	if e.Kind != isa.KindCondBranch || e.Size != 16 || e.BranchPC != 0x100C {
		t.Fatalf("bb = %+v", e)
	}
	// From past the branch: fallthrough continuation to the block end.
	e = bbFromPredecode(0x1010, brs)
	if e.Kind != isa.KindALU || e.Size != 48 {
		t.Fatalf("continuation = %+v", e)
	}
}

func TestFTQ(t *testing.T) {
	q := newFTQ(3)
	q.push(10)
	q.push(10) // consecutive duplicate collapses
	q.push(11)
	if h, _ := q.head(); h != 10 {
		t.Fatalf("head = %d", h)
	}
	q.pop()
	if h, _ := q.head(); h != 11 {
		t.Fatalf("head after pop = %d", h)
	}
	q.push(12)
	q.push(13)
	q.push(14) // over capacity, dropped
	if !q.full() {
		t.Fatal("queue should be full")
	}
	q.reset()
	if !q.empty() {
		t.Fatal("reset failed")
	}
	if _, ok := q.head(); ok {
		t.Fatal("head on empty queue")
	}
}

func TestBoomerangWalkAndGate(t *testing.T) {
	env := newFakeEnv()
	base := isa.Addr(0x10000)
	target := isa.Addr(0x20000)
	env.image = buildLinearImage(base, 2, 3, target) // 2 blocks; jump in block 2
	d := NewBoomerang(DefaultBoomerangConfig())
	d.Bind(env)

	// Fetch asks for the first block: FTQ is empty, the engine restarts
	// there and the gate stalls.
	if d.FTQGate(base) {
		t.Fatal("gate passed with empty FTQ")
	}
	// The engine walks: first BB lookup misses -> reactive repair. The
	// block is absent, so the engine issues a fetch and stalls.
	d.Tick()
	if !d.stalled {
		t.Fatal("engine should stall on a cold BTB+cache")
	}
	if len(env.issued) == 0 {
		t.Fatal("reactive repair issued no fetch")
	}
	// The fill arrives: the engine decodes, inserts the BB, and resumes.
	env.fill(d, isa.BlockOf(base), true)
	if d.stalled {
		t.Fatal("fill did not clear the stall")
	}
	for i := 0; i < 8; i++ {
		d.Tick()
		for _, b := range append([]isa.BlockID{}, env.issued...) {
			if env.inflight[b] {
				env.fill(d, b, true)
			}
		}
	}
	// Now the FTQ holds the walked blocks; the gate passes for them.
	if !d.FTQGate(base) {
		t.Fatal("gate failed after the engine delivered the block")
	}
	if !d.FTQGate(base + isa.BlockBytes) {
		t.Fatal("gate failed for the second block")
	}
	if d.ReactiveFills == 0 {
		t.Fatal("no reactive fills recorded")
	}
}

func TestBoomerangDivergenceSquashes(t *testing.T) {
	env := newFakeEnv()
	base := isa.Addr(0x10000)
	env.image = buildLinearImage(base, 2, 3, 0x20000)
	d := NewBoomerang(DefaultBoomerangConfig())
	d.Bind(env)
	d.q.push(isa.BlockOf(base))
	// Fetch goes somewhere else entirely: squash and restart there.
	other := isa.Addr(0x40000)
	if d.FTQGate(other) {
		t.Fatal("diverging gate passed")
	}
	if d.Squashes != 1 {
		t.Fatalf("squashes = %d", d.Squashes)
	}
	if d.walkPC != other || !d.walkValid {
		t.Fatalf("engine did not restart at the divergence: %#x", d.walkPC)
	}
}

func TestBoomerangCommitTrainsBBBTB(t *testing.T) {
	env := newFakeEnv()
	d := NewBoomerang(DefaultBoomerangConfig())
	d.Bind(env)
	d.OnRetire(isa.Inst{PC: 0x100, Size: 4, Kind: isa.KindALU}, false, 0)
	d.OnRetire(isa.Inst{PC: 0x104, Size: 4, Kind: isa.KindJump, Target: 0x300}, true, 0x300)
	if _, ok := d.bb.Peek(0x100); !ok {
		t.Fatal("commit did not train the BB-BTB")
	}
	if target, ok := d.BTBLookup(0x104, isa.KindJump); !ok || target != 0x300 {
		t.Fatalf("per-PC view = %#x, %v", target, ok)
	}
}

func TestShotgunFootprintPrefetchOnUHit(t *testing.T) {
	env := newFakeEnv()
	base := isa.Addr(0x10000)
	target := isa.Addr(0x20000)
	env.image = buildLinearImage(base, 1, 3, target)
	d := NewShotgun(DefaultShotgunDesignConfig())
	d.Bind(env)

	// Train a U-BTB entry with a call footprint via the retired stream.
	for i := 0; i < 3; i++ {
		d.OnRetire(isa.Inst{PC: base + isa.Addr(i*4), Size: 4, Kind: isa.KindALU}, false, 0)
	}
	d.OnRetire(isa.Inst{PC: base + 12, Size: 4, Kind: isa.KindJump, Target: target}, true, target)
	// Instructions around the target build the footprint.
	for i := 0; i < 32; i++ {
		d.OnRetire(isa.Inst{PC: target + isa.Addr(i*4), Size: 4, Kind: isa.KindALU}, false, 0)
	}
	// Close the region with another unconditional branch.
	d.OnRetire(isa.Inst{PC: target + 128, Size: 4, Kind: isa.KindJump, Target: base}, true, base)

	// Walk from the trained entry: the engine must bulk-prefetch the
	// footprint around the target.
	d.restart(base)
	d.Tick()
	got := issuedSet(env.issued)
	if !got[isa.BlockOf(target)] || !got[isa.BlockOf(target)+1] {
		t.Fatalf("footprint not prefetched: %v", env.issued)
	}
	if d.FootprintPrefetch == 0 {
		t.Fatal("footprint prefetches not counted")
	}
	if d.sb.FootprintMissRatio() != 0 {
		t.Fatalf("trained footprint counted as miss: %v", d.sb.FootprintMissRatio())
	}
}

func TestShotgunReactiveResolvesUncondAsFootprintMiss(t *testing.T) {
	env := newFakeEnv()
	base := isa.Addr(0x10000)
	env.image = buildLinearImage(base, 1, 3, 0x20000)
	d := NewShotgun(DefaultShotgunDesignConfig())
	d.Bind(env)

	env.install(isa.BlockOf(base)) // block resident: reactive decode is immediate
	d.restart(base)
	d.Tick()
	sb := d.sb
	if sb.UEntryMiss != 1 || sb.UFootprintMiss != 1 {
		t.Fatalf("reactive uncond resolution not counted: %+v", sb)
	}
}

// TestShotgunBufferedPrefetches: the paper's Shotgun declares a 64-entry L1i
// prefetch buffer (Bufferer), a design without one declares nothing, and the
// storage budget counts the buffer's tags on top of the tables and FTQ.
func TestShotgunBufferedPrefetches(t *testing.T) {
	var d Design = NewShotgun(DefaultShotgunDesignConfig())
	if b, ok := d.(Bufferer); !ok || b.BufferEntries() != 64 {
		t.Fatalf("the paper's Shotgun declares no 64-entry buffer")
	}
	if _, ok := Design(NewBoomerang(DefaultBoomerangConfig())).(Bufferer); ok {
		t.Fatalf("Boomerang, which prefetches into the L1i, declares a buffer")
	}
	sg := d.(*Shotgun)
	unbuffered := sg.sb.U.Entries()*(2*btb.FootprintBits+7+3) + sg.sb.C.Entries()*7 +
		sg.sb.RIB.Entries()*7 + sg.ftqBits() + 32*56
	if got, want := d.StorageBits()-unbuffered, 64*48; got != want {
		t.Fatalf("the 64-entry buffer adds %d bits of storage, want %d", got, want)
	}

	env := newFakeEnv()
	base := isa.Addr(0x10000)
	env.image = buildLinearImage(base, 2, 3, 0x20000)
	d.Bind(env)
	d.(*Shotgun).restart(base)
	d.Tick() // reactive stall -> fetch through the Env
	if len(env.issued) == 0 {
		t.Fatal("shotgun issued no prefetch on a reactive stall")
	}
}
