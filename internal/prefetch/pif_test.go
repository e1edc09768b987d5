package prefetch

import (
	"testing"

	"dnc/internal/isa"
)

func pifRetire(p *PIF, b isa.BlockID) {
	p.OnRetire(isa.Inst{PC: isa.BlockBase(b), Size: 4, Kind: isa.KindALU}, false, 0)
}

func smallPIF(lookahead int) *PIF {
	return newPIF(64, 64, 64, lookahead)
}

// TestPIFRegionSpanMatrix pins the spatial-compaction rule: retires within
// [trigger-4, trigger+11] fold into the open region; anything outside closes
// it.
func TestPIFRegionSpanMatrix(t *testing.T) {
	cases := []struct {
		name   string
		next   isa.BlockID // retired after trigger 100
		folded bool
	}{
		{name: "trigger+1", next: 101, folded: true},
		{name: "trigger-4", next: 96, folded: true},
		{name: "trigger-5", next: 95, folded: false},
		{name: "trigger+11", next: 111, folded: true},
		{name: "trigger+12", next: 112, folded: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := smallPIF(4)
			p.Bind(newFakeEnv())
			pifRetire(p, 100)
			pifRetire(p, tc.next)
			wantLogged := 1
			if tc.folded {
				wantLogged = 0
			}
			if p.histPos != wantLogged {
				t.Fatalf("history holds %d regions, want %d", p.histPos, wantLogged)
			}
		})
	}
}

// TestPIFRegionExpansionClampsAtZero pins appendBlocks: deltas that would
// underflow block 0 are dropped, not wrapped.
func TestPIFRegionExpansionClampsAtZero(t *testing.T) {
	r := pifRegion{trigger: 2, bits: 0xFFFF}
	blocks := r.appendBlocks(nil)
	for _, b := range blocks {
		if b > 2+11 {
			t.Fatalf("block %d outside the region's forward span", b)
		}
	}
	// trigger-3 and trigger-4 would be negative; the remaining 14 bits are
	// 2-(2..0) and 2+(1..11).
	if n := len(blocks); n != 14 {
		t.Fatalf("expanded %d blocks, want 14 (underflow not clamped)", n)
	}
}

// TestPIFStreamReplaysRegionNeighborhood pins that replay issues a region's
// whole bit vector, not just its trigger.
func TestPIFStreamReplaysRegionNeighborhood(t *testing.T) {
	env := newFakeEnv()
	p := smallPIF(4)
	p.Bind(env)
	// Region A: trigger 100 plus 101, 103. Region B: far away, closes A.
	pifRetire(p, 100)
	pifRetire(p, 101)
	pifRetire(p, 103)
	pifRetire(p, 500)
	pifRetire(p, 900) // closes B so it reaches the history too

	env.issued = nil
	p.OnDemand(100, false, [2]isa.Addr{})
	got := issuedSet(env.issued)
	for _, b := range []isa.BlockID{500} {
		if !got[b] {
			t.Fatalf("replay missing next region's trigger %d: %v", b, env.issued)
		}
	}
	// The miss positions the stream at region A's history slot and replays
	// *following* regions; A's own neighborhood arrives via demand fetch.
	if got[101] || got[103] {
		t.Fatalf("replay re-issued the triggering region itself: %v", env.issued)
	}
}

// TestPIFStreamStopsAtWriteHead pins stream termination: replay must never
// run past the history write head into stale entries.
func TestPIFStreamStopsAtWriteHead(t *testing.T) {
	env := newFakeEnv()
	p := smallPIF(16) // lookahead far beyond the recorded stream
	p.Bind(env)
	for _, b := range []isa.BlockID{100, 500, 900} {
		pifRetire(p, b)
	}
	p.OnDemand(100, false, [2]isa.Addr{})
	if p.streamLive {
		t.Fatal("stream still live after crossing the write head")
	}
	// A later hit must not advance the dead stream.
	n := len(env.issued)
	p.OnDemand(500, true, [2]isa.Addr{})
	if len(env.issued) != n {
		t.Fatalf("dead stream issued prefetches: %v", env.issued[n:])
	}
}

// TestPIFHitAdvancesOnlyLiveStream pins the follow-up rule: hits advance an
// active stream one region at a time and do nothing otherwise.
func TestPIFHitAdvancesOnlyLiveStream(t *testing.T) {
	env := newFakeEnv()
	p := smallPIF(1)
	p.Bind(env)
	for _, b := range []isa.BlockID{100, 500, 900, 1300, 1700} {
		pifRetire(p, b)
	}
	// No stream: a hit is inert.
	p.OnDemand(100, true, [2]isa.Addr{})
	if len(env.issued) != 0 {
		t.Fatalf("hit without a stream issued prefetches: %v", env.issued)
	}
	// Start the stream (lookahead 1 → region 500 only), then advance by hit.
	p.OnDemand(100, false, [2]isa.Addr{})
	if !issuedSet(env.issued)[500] || issuedSet(env.issued)[900] {
		t.Fatalf("lookahead-1 replay wrong: %v", env.issued)
	}
	p.OnDemand(500, true, [2]isa.Addr{})
	if !issuedSet(env.issued)[900] {
		t.Fatalf("hit did not advance the stream: %v", env.issued)
	}
}

// TestPIFRedirectKillsStream pins the divergence rule: a fetch redirect
// invalidates the replay position.
func TestPIFRedirectKillsStream(t *testing.T) {
	env := newFakeEnv()
	p := smallPIF(1)
	p.Bind(env)
	for _, b := range []isa.BlockID{100, 500, 900} {
		pifRetire(p, b)
	}
	p.OnDemand(100, false, [2]isa.Addr{})
	p.OnRedirect(0)
	n := len(env.issued)
	p.OnDemand(500, true, [2]isa.Addr{})
	if len(env.issued) != n {
		t.Fatal("stream survived a redirect")
	}
}

// TestPIFIndexTagFiltersAliases pins the partial-tag check on the trigger
// index: a block aliasing the same slot with a different tag must not start
// a stream.
func TestPIFIndexTagFiltersAliases(t *testing.T) {
	env := newFakeEnv()
	p := smallPIF(4)
	p.Bind(env)
	for _, b := range []isa.BlockID{5, 500, 900} {
		pifRetire(p, b)
	}
	alias := isa.BlockID(5 + (1 << 14)) // same index slot (low 6 bits), different tag
	p.OnDemand(alias, false, [2]isa.Addr{})
	if p.streamLive || len(env.issued) != 0 {
		t.Fatal("aliased trigger started a stream across the tag boundary")
	}
}
