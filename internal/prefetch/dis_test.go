package prefetch

import (
	"testing"

	"dnc/internal/isa"
)

// buildKindImage lays out a fixed-mode block whose slot 3 is a transfer of
// the given kind (target encoded only for kinds that carry one).
func buildKindImage(base isa.Addr, kind isa.Kind, target isa.Addr) *isa.Image {
	a := isa.NewAssembler(isa.Fixed, base, 16*isa.FixedSize, 1)
	for i := 0; i < 16; i++ {
		inst := isa.Inst{PC: base + isa.Addr(i*4), Size: 4, Kind: isa.KindALU}
		if i == 3 {
			inst.Kind = kind
			inst.Target = target
		}
		a.Block(inst.PC, []isa.Kind{inst.Kind}, nil, inst.Target)
	}
	return a.Image()
}

// TestDisRecordScansBothDelaySlotCandidates pins the recording rule: the
// discontinuity branch may be either of the last two demanded instructions
// (the SPARC delay slot), and zero PCs are skipped.
func TestDisRecordScansBothDelaySlotCandidates(t *testing.T) {
	base := isa.Addr(0x10000)
	branchPC := base + 12
	cases := []struct {
		name  string
		last2 [2]isa.Addr
		want  bool
	}{
		{name: "branch-first", last2: [2]isa.Addr{branchPC, base + 16}, want: true},
		{name: "branch-second", last2: [2]isa.Addr{base + 16, branchPC}, want: true},
		{name: "no-branch", last2: [2]isa.Addr{base, base + 4}, want: false},
		{name: "zero-pcs", last2: [2]isa.Addr{0, 0}, want: false},
		{name: "zero-then-branch", last2: [2]isa.Addr{0, branchPC}, want: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := newFakeEnv()
			env.image = buildBranchImage(base, 0x20000)
			d := NewDis(1024, 4, 2048)
			d.Bind(env)
			d.OnDemand(isa.BlockOf(0x20000), false, tc.last2)
			_, ok := disLookup(d.tab, isa.BlockOf(base))
			if ok != tc.want {
				t.Fatalf("recorded = %v, want %v", ok, tc.want)
			}
		})
	}
}

// TestDisReturnNeedsBTB pins the replay path for transfers without an
// encoded target: a recorded return replays only once the BTB knows the
// target.
func TestDisReturnNeedsBTB(t *testing.T) {
	env := newFakeEnv()
	base := isa.Addr(0x10000)
	env.image = buildKindImage(base, isa.KindReturn, 0)
	d := NewDis(1024, 4, 2048)
	d.Bind(env)

	blk := isa.BlockOf(base)
	disRecord(d.tab, blk, 12)
	env.install(blk)

	d.OnDemand(blk, true, [2]isa.Addr{})
	if len(env.issued) != 0 {
		t.Fatalf("replayed a return with no BTB target: %v", env.issued)
	}

	// Once the BTB learns the return's target, replay issues it.
	target := isa.Addr(0x30000)
	d.BTBCommit(base+12, isa.KindReturn, target, true)
	d.OnDemand(blk, true, [2]isa.Addr{})
	if !issuedSet(env.issued)[isa.BlockOf(target)] {
		t.Fatalf("return target not prefetched after BTB training: %v", env.issued)
	}
}

// TestDisReplayStatsClassify pins the replay outcomes SN4L+Dis reports in its
// Probes (the Figure 12 overprediction is ReplayNotBranch/ReplayTableHits)
// over a table of replays of one block: no table entry, an aliased entry
// decoding to a non-branch, and a successful replay.
func TestDisReplayStatsClassify(t *testing.T) {
	env := newFakeEnv()
	base := isa.Addr(0x10000)
	target := isa.Addr(0x20000)
	env.image = buildBranchImage(base, target)
	p := NewProactive(DefaultProactiveConfig())
	p.Bind(env)
	blk := isa.BlockOf(base)
	env.install(blk)
	replay := func() (pr Probes) {
		p.OnDemand(blk, true, [2]isa.Addr{})
		for i := 0; i < 32 && !p.Quiescent(); i++ {
			p.Tick()
		}
		p.AddProbes(&pr)
		return pr
	}

	if pr := replay(); pr != (Probes{}) {
		t.Fatalf("after table miss: %+v", pr)
	}
	disRecord(p.dis, blk, 0) // offset 0 decodes to an ALU op
	if pr := replay(); pr != (Probes{ReplayTableHits: 1, ReplayNotBranch: 1}) {
		t.Fatalf("after stale entry: %+v, want one table hit, not a branch", pr)
	}
	if len(env.issued) != 0 {
		t.Fatalf("a stale entry replayed into prefetches: %v", env.issued)
	}
	disRecord(p.dis, blk, 12) // the real branch
	if pr := replay(); pr != (Probes{ReplayTableHits: 2, ReplayNotBranch: 1}) {
		t.Fatalf("after good entry: %+v, want two table hits, one not a branch", pr)
	}
	if !issuedSet(env.issued)[isa.BlockOf(target)] {
		t.Fatalf("good entry did not prefetch its target: %v", env.issued)
	}
}

// TestDisPendingReplayDedup pins the deferred replay: a miss leaves the
// replay to the block's fill, so repeated misses on the same block probe and
// issue nothing, and the fill replays once.
func TestDisPendingReplayDedup(t *testing.T) {
	env := newFakeEnv()
	base := isa.Addr(0x10000)
	target := isa.Addr(0x20000)
	env.image = buildBranchImage(base, target)
	d := NewDis(1024, 4, 2048)
	d.Bind(env)

	blk := isa.BlockOf(base)
	disRecord(d.tab, blk, 12)
	d.OnDemand(blk, false, [2]isa.Addr{})
	d.OnDemand(blk, false, [2]isa.Addr{})
	if env.lookups != 0 || len(env.issued) != 0 {
		t.Fatalf("misses replayed before the fill: %d lookups, issued %v", env.lookups, env.issued)
	}
	env.fill(d, blk, false)
	if env.lookups != 1 || len(env.issued) != 1 || env.issued[0] != isa.BlockOf(target) {
		t.Fatalf("fill replayed with %d lookups, issued %v; want one replay of the target", env.lookups, env.issued)
	}
}
