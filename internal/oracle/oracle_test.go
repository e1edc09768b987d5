package oracle

import (
	"testing"

	wl "dnc/internal/cfg"
	"dnc/internal/checkpoint"
	"dnc/internal/isa"
)

func testProgram(t *testing.T) *wl.Program {
	t.Helper()
	return wl.Generate(wl.Params{
		Name:           "oracle-test",
		Mode:           isa.Fixed,
		FootprintBytes: 128 << 10,
		GenSeed:        7,
	})
}

func TestDeterministicReplay(t *testing.T) {
	prog := testProgram(t)
	a, b := New(prog, 42), New(prog, 42)
	var sa, sb wl.Step
	for i := 0; i < 5000; i++ {
		a.NextRetire(&sa)
		b.NextRetire(&sb)
		if sa != sb {
			t.Fatalf("step %d: models diverged: %+v vs %+v", i, sa, sb)
		}
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("equal streams, unequal digests: %x vs %x", a.Digest(), b.Digest())
	}
	if a.C != b.C {
		t.Fatalf("equal streams, unequal counters: %+v vs %+v", a.C, b.C)
	}
}

func TestDigestIsOrderSensitive(t *testing.T) {
	prog := testProgram(t)
	a, b := New(prog, 42), New(prog, 43)
	var s wl.Step
	for i := 0; i < 2000; i++ {
		a.NextRetire(&s)
		b.NextRetire(&s)
	}
	if a.Digest() == b.Digest() {
		t.Fatal("different seeds produced the same digest")
	}
}

// TestTransitionsMatchRawStream checks the transition stream against an
// independent run-length collapse of the same walker's raw step stream.
func TestTransitionsMatchRawStream(t *testing.T) {
	prog := testProgram(t)
	m := New(prog, 9)

	// Independent reference: collapse the raw committed stream by hand.
	ref := wl.NewWalker(prog, 9)
	var s wl.Step
	var want []Transition
	touched := map[isa.BlockID]bool{}
	var prev isa.BlockID
	havePrev := false
	for len(want) < 3000 {
		ref.Next(&s)
		b := isa.BlockOf(s.Inst.PC)
		if havePrev && b == prev {
			continue
		}
		tr := Transition{Block: b, Seq: havePrev && b == prev+1, First: !touched[b]}
		touched[b] = true
		want = append(want, tr)
		prev, havePrev = b, true
	}

	for i, w := range want {
		got := m.NextTransition()
		if got != w {
			t.Fatalf("transition %d: got %+v, want %+v", i, got, w)
		}
	}
	if m.Transitions != uint64(len(want)) {
		t.Fatalf("Transitions = %d, want %d", m.Transitions, len(want))
	}
	if m.SeqFirst+m.DiscFirst != m.FirstTouches {
		t.Fatalf("first-touch split %d+%d does not sum to %d",
			m.SeqFirst, m.DiscFirst, m.FirstTouches)
	}
	if uint64(len(touched)) != m.FirstTouches {
		t.Fatalf("FirstTouches = %d, want %d distinct blocks", m.FirstTouches, len(touched))
	}
}

func TestFirstTransitionIsDiscontinuous(t *testing.T) {
	prog := testProgram(t)
	m := New(prog, 3)
	tr := m.NextTransition()
	if tr.Seq || !tr.First {
		t.Fatalf("first transition = %+v, want First && !Seq", tr)
	}
}

func TestCountersClassifyKinds(t *testing.T) {
	prog := testProgram(t)
	m := New(prog, 11)
	var s wl.Step
	var cond, taken uint64
	for i := 0; i < 20000; i++ {
		m.NextRetire(&s)
		if s.Inst.Kind == isa.KindCondBranch {
			cond++
		}
		if s.Inst.Kind.IsBranch() && s.Taken {
			taken++
		}
	}
	if m.C.Retired != 20000 {
		t.Fatalf("Retired = %d", m.C.Retired)
	}
	if m.C.CondBranches != cond {
		t.Fatalf("CondBranches = %d, want %d", m.C.CondBranches, cond)
	}
	if m.C.Taken != taken {
		t.Fatalf("Taken = %d, want %d", m.C.Taken, taken)
	}
	if m.BranchSites() == 0 {
		t.Fatal("no branch sites observed in 20000 instructions")
	}
	sum := m.C.CondBranches + m.C.Jumps + m.C.Calls + m.C.Returns +
		m.C.Indirects + m.C.Loads + m.C.Stores
	if sum > m.C.Retired {
		t.Fatalf("kind counts %d exceed retired %d", sum, m.C.Retired)
	}
}

func stateOf(m *Model) []byte {
	return checkpoint.Save(nil, func(c *checkpoint.Codec) { m.State(c, 0) })
}

// TestSnapshotRestoreResumesBothStreams interrupts a model mid-run,
// round-trips it through the checkpoint codec, and checks that the restored
// model continues both reference streams exactly where the original would.
func TestSnapshotRestoreResumesBothStreams(t *testing.T) {
	prog := testProgram(t)
	m := New(prog, 5)
	var s wl.Step
	for i := 0; i < 1234; i++ {
		m.NextRetire(&s)
	}
	for i := 0; i < 456; i++ {
		m.NextTransition()
	}

	r := New(prog, 5)
	if err := checkpoint.Load(stateOf(m), func(c *checkpoint.Codec) { r.State(c, 1<<20) }); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if r.Digest() != m.Digest() || r.C != m.C || r.Transitions != m.Transitions ||
		r.FirstTouches != m.FirstTouches || r.BranchSites() != m.BranchSites() {
		t.Fatal("restored model's accumulated state differs")
	}

	var sm, sr wl.Step
	for i := 0; i < 2000; i++ {
		m.NextRetire(&sm)
		r.NextRetire(&sr)
		if sm != sr {
			t.Fatalf("retire stream diverged %d steps after restore", i)
		}
		if tm, tr := m.NextTransition(), r.NextTransition(); tm != tr {
			t.Fatalf("transition stream diverged %d steps after restore: %+v vs %+v", i, tm, tr)
		}
	}
}

// TestSnapshotDeterministic pins the deterministic (sorted) encoding of the
// model's sets: two identical models snapshot to identical bytes.
func TestSnapshotDeterministic(t *testing.T) {
	prog := testProgram(t)
	enc := func() []byte {
		m := New(prog, 5)
		var s wl.Step
		for i := 0; i < 3000; i++ {
			m.NextRetire(&s)
			m.NextTransition()
		}
		return stateOf(m)
	}
	a, b := enc(), enc()
	if string(a) != string(b) {
		t.Fatal("identical models produced different snapshot bytes")
	}
}
