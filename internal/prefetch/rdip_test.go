package prefetch

import (
	"testing"

	"dnc/internal/isa"
)

func rdipCall(pc, target isa.Addr) isa.Inst {
	return isa.Inst{PC: pc, Size: 4, Kind: isa.KindCall, Target: target}
}

func rdipRet(pc isa.Addr) isa.Inst {
	return isa.Inst{PC: pc, Size: 4, Kind: isa.KindReturn}
}

// TestRDIPMissSetDedup pins per-signature dedup: re-missing the same block
// under one context must not consume another miss-set slot.
func TestRDIPMissSetDedup(t *testing.T) {
	env := newFakeEnv()
	d := NewRDIP(1024, 2048)
	d.Bind(env)
	d.OnRetire(rdipCall(0x1000, 0x9000), true, 0x9000)
	d.OnDemand(500, false, [2]isa.Addr{})
	d.OnDemand(500, false, [2]isa.Addr{})
	d.OnDemand(501, false, [2]isa.Addr{})
	if e := d.tab.lookup(d.sig); e == nil || e.n != 2 || e.blocks[0] != 500 || e.blocks[1] != 501 {
		t.Fatalf("miss set %+v, want [500 501] (dedup failed)", e)
	}
}

// TestRDIPMissSetFIFOReplacement pins the bounded miss set: the ninth
// distinct miss overwrites the oldest entry, so replay covers the newest
// eight blocks.
func TestRDIPMissSetFIFOReplacement(t *testing.T) {
	env := newFakeEnv()
	d := NewRDIP(1024, 2048)
	d.Bind(env)
	call := rdipCall(0x1000, 0x9000)
	d.OnRetire(call, true, 0x9000)
	for b := isa.BlockID(500); b < 500+rdipBlocksPerSig+1; b++ {
		d.OnDemand(b, false, [2]isa.Addr{})
	}
	// Re-enter the context; the replayed set must hold blocks 501..508 (500
	// was displaced FIFO-first).
	d.OnRetire(rdipRet(0x9004), true, 0x1004)
	env.issued = nil
	d.OnRetire(call, true, 0x9000)
	got := issuedSet(env.issued)
	if got[500] {
		t.Fatalf("displaced block still replayed: %v", env.issued)
	}
	for b := isa.BlockID(501); b < 500+rdipBlocksPerSig+1; b++ {
		if !got[b] {
			t.Fatalf("block %d missing from replay: %v", b, env.issued)
		}
	}
}

// TestRDIPContextSwitchMatrix pins which retire events switch the signature
// (and hence trigger replay) — taken calls and indirects do, not-taken ones
// and plain branches do not.
func TestRDIPContextSwitchMatrix(t *testing.T) {
	cases := []struct {
		name   string
		inst   isa.Inst
		taken  bool
		replay bool
	}{
		{name: "taken-call", inst: rdipCall(0x1000, 0x9000), taken: true, replay: true},
		{name: "not-taken-call", inst: rdipCall(0x1000, 0x9000), taken: false, replay: false},
		{name: "taken-indirect", inst: isa.Inst{PC: 0x1000, Size: 4, Kind: isa.KindIndirect}, taken: true, replay: true},
		{name: "cond-branch", inst: isa.Inst{PC: 0x1000, Size: 4, Kind: isa.KindCondBranch}, taken: true, replay: false},
		{name: "alu", inst: isa.Inst{PC: 0x1000, Size: 4, Kind: isa.KindALU}, taken: false, replay: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := newFakeEnv()
			d := NewRDIP(1024, 2048)
			d.Bind(env)
			// Prime the entry the switch would land on: record a miss under
			// the post-switch signature, then rewind to the root context.
			d.OnRetire(tc.inst, tc.taken, 0x9000)
			d.OnDemand(700, false, [2]isa.Addr{})
			for len(d.ras) > 0 {
				d.OnRetire(rdipRet(0x9004), true, 0)
			}
			env.issued = nil
			d.OnRetire(tc.inst, tc.taken, 0x9000)
			if got := issuedSet(env.issued)[700]; got != tc.replay {
				t.Fatalf("replay = %v, want %v (%v)", got, tc.replay, env.issued)
			}
		})
	}
}

// TestRDIPReturnRestoresCallerContext pins the shadow-RAS pop: after a
// call/return pair the signature is the caller's again, so its miss set
// keeps accumulating rather than starting fresh.
func TestRDIPReturnRestoresCallerContext(t *testing.T) {
	env := newFakeEnv()
	d := NewRDIP(1024, 2048)
	d.Bind(env)
	d.OnRetire(rdipCall(0x1000, 0x9000), true, 0x9000) // caller context
	d.OnDemand(600, false, [2]isa.Addr{})
	d.OnRetire(rdipCall(0x9010, 0xA000), true, 0xA000) // callee context
	d.OnDemand(800, false, [2]isa.Addr{})
	d.OnRetire(rdipRet(0xA004), true, 0x9014) // back to caller

	// The pop replays the caller's set immediately.
	if !issuedSet(env.issued)[600] {
		t.Fatalf("caller's miss set not replayed on return: %v", env.issued)
	}
	// And new misses land in the caller's set, not the callee's.
	d.OnDemand(601, false, [2]isa.Addr{})
	d.OnRetire(rdipCall(0x9010, 0xA000), true, 0xA000)
	d.OnRetire(rdipRet(0xA004), true, 0x9014)
	if !issuedSet(env.issued)[601] {
		t.Fatalf("post-return miss recorded under the wrong context: %v", env.issued)
	}
}

// TestRDIPShadowRASBounded pins the 16-entry shadow stack: deep call chains
// shift rather than grow, and the signature stays computable.
func TestRDIPShadowRASBounded(t *testing.T) {
	env := newFakeEnv()
	d := NewRDIP(1024, 2048)
	d.Bind(env)
	for i := 0; i < 40; i++ {
		d.OnRetire(rdipCall(isa.Addr(0x1000+i*16), 0x9000), true, 0x9000)
	}
	if len(d.ras) != 16 {
		t.Fatalf("shadow RAS length = %d, want capped at 16", len(d.ras))
	}
	// Underflow on excess returns must be harmless.
	for i := 0; i < 20; i++ {
		d.OnRetire(rdipRet(0x9004), true, 0)
	}
	if len(d.ras) != 0 {
		t.Fatalf("shadow RAS length = %d after draining, want 0", len(d.ras))
	}
}
