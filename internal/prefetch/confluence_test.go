package prefetch

import (
	"testing"

	"dnc/internal/isa"
)

func smallConfluence(hist, lookahead int) *Confluence {
	return newConfluence(hist, 64, 64, lookahead)
}

func confMiss(c *Confluence, b isa.BlockID) { c.OnDemand(b, false, [2]isa.Addr{}) }

// TestConfluenceIndexTracksLatestOccurrence pins SHIFT's index update rule:
// a re-missed block replays the history from its most recent occurrence, not
// its first.
func TestConfluenceIndexTracksLatestOccurrence(t *testing.T) {
	env := newFakeEnv()
	c := smallConfluence(1024, 1)
	c.Bind(env)
	for _, b := range []isa.BlockID{100, 200, 100, 300} {
		confMiss(c, b)
	}
	env.issued = nil
	env.inflight = map[isa.BlockID]bool{}
	confMiss(c, 100)
	got := issuedSet(env.issued)
	if !got[300] {
		t.Fatalf("latest occurrence not replayed (want 300): %v", env.issued)
	}
	if got[200] {
		t.Fatalf("replay started from a stale occurrence: %v", env.issued)
	}
}

// TestConfluenceHitAdvancesLiveStreamByOne pins the follow-up rule: each
// demand hit moves an active stream one history entry forward.
func TestConfluenceHitAdvancesLiveStreamByOne(t *testing.T) {
	env := newFakeEnv()
	c := smallConfluence(1024, 1)
	c.Bind(env)
	for _, b := range []isa.BlockID{100, 200, 300} {
		confMiss(c, b)
	}
	env.issued = nil
	env.inflight = map[isa.BlockID]bool{}
	confMiss(c, 100) // restart at the recorded occurrence; lookahead 1 → 200
	if got := issuedSet(env.issued); !got[200] || got[300] {
		t.Fatalf("lookahead-1 replay wrong: %v", env.issued)
	}
	c.OnDemand(200, true, [2]isa.Addr{})
	if !issuedSet(env.issued)[300] {
		t.Fatalf("hit did not advance the stream: %v", env.issued)
	}
}

// TestConfluenceHitWithoutStreamIsInert pins that hits never start streams.
func TestConfluenceHitWithoutStreamIsInert(t *testing.T) {
	env := newFakeEnv()
	c := smallConfluence(1024, 4)
	c.Bind(env)
	for _, b := range []isa.BlockID{100, 200, 300} {
		confMiss(c, b)
	}
	env.issued = nil
	c.OnDemand(100, true, [2]isa.Addr{})
	if len(env.issued) != 0 {
		t.Fatalf("hit started a stream: %v", env.issued)
	}
}

// TestConfluenceWraparoundStopsAtWriteHead pins the circular history: replay
// wraps past the end of the buffer but must halt at the write head rather
// than re-issuing overwritten (stale) entries.
func TestConfluenceWraparoundStopsAtWriteHead(t *testing.T) {
	env := newFakeEnv()
	c := smallConfluence(4, 6)
	c.Bind(env)
	// Fill the 4-entry history, then overwrite slot 0: [50, 20, 30, 40].
	for _, b := range []isa.BlockID{10, 20, 30, 40, 50} {
		confMiss(c, b)
	}
	env.issued = nil
	env.inflight = map[isa.BlockID]bool{}
	confMiss(c, 30)
	got := issuedSet(env.issued)
	if !got[40] || !got[50] {
		t.Fatalf("wrapped replay incomplete (want 40, 50): %v", env.issued)
	}
	if got[10] || got[20] {
		t.Fatalf("replay crossed the write head into stale history: %v", env.issued)
	}
	if c.streamLive {
		t.Fatal("stream still live after reaching the write head")
	}
}

// TestConfluenceIndexTagFiltersAliases pins the partial-tag check: a miss
// aliasing a recorded block's index slot with a different tag must not
// replay that block's stream.
func TestConfluenceIndexTagFiltersAliases(t *testing.T) {
	env := newFakeEnv()
	c := smallConfluence(1024, 4)
	c.Bind(env)
	for _, b := range []isa.BlockID{7, 200, 300} {
		confMiss(c, b)
	}
	alias := isa.BlockID(7 + (1 << 14)) // same 6-bit index slot, different tag
	env.issued = nil
	confMiss(c, alias)
	if c.streamLive || len(env.issued) != 0 {
		t.Fatalf("aliased miss started a stream: %v", env.issued)
	}
}

// TestConfluenceRedirectStopsHitFollowup pins that after a fetch redirect,
// demand hits no longer advance the (dead) replay position.
func TestConfluenceRedirectStopsHitFollowup(t *testing.T) {
	env := newFakeEnv()
	c := smallConfluence(1024, 1)
	c.Bind(env)
	for _, b := range []isa.BlockID{100, 200, 300} {
		confMiss(c, b)
	}
	env.inflight = map[isa.BlockID]bool{}
	confMiss(c, 100)
	c.OnRedirect(0)
	n := len(env.issued)
	c.OnDemand(200, true, [2]isa.Addr{})
	if len(env.issued) != n {
		t.Fatal("stream survived a redirect")
	}
}
