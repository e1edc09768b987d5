package noc

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"dnc/internal/checkpoint/checkpointtest"
)

func TestHops(t *testing.T) {
	m := New(DefaultConfig())
	cases := []struct {
		src, dst Tile
		want     int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 3},
		{0, 4, 1},  // one row down
		{0, 15, 6}, // 3 east + 3 south
		{5, 10, 2},
	}
	for _, c := range cases {
		if got := m.Hops(c.src, c.dst); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestZeroLoadLatency(t *testing.T) {
	m := New(DefaultConfig())
	// 1-flit control packet over 3 hops: 3 hops * 3 cycles + 0 tail.
	got := m.Send(0, 3, 1, 100)
	if got != 100+9 {
		t.Errorf("3-hop 1-flit delivery at %d, want %d", got, 109)
	}
	m.Reset()
	// 5-flit data response over 1 hop: 3 + 4 tail cycles.
	got = m.Send(0, 1, 5, 0)
	if got != 3+4 {
		t.Errorf("1-hop 5-flit delivery at %d, want 7", got)
	}
}

func TestLocalDelivery(t *testing.T) {
	m := New(DefaultConfig())
	if got := m.Send(2, 2, 5, 10); got != 11 {
		t.Errorf("local delivery at %d, want 11", got)
	}
	if m.Flits() != 0 {
		t.Errorf("local delivery counted link flits: %d", m.Flits())
	}
}

func TestContention(t *testing.T) {
	m := New(DefaultConfig())
	// Light load within a window incurs no delay.
	a := m.Send(0, 1, 5, 0)
	b := m.Send(0, 1, 5, 0)
	if b != a {
		t.Errorf("lightly loaded link delayed a packet: a=%d b=%d", a, b)
	}
	// Over-subscribing the 64-flit window delays later packets.
	var last uint64
	for i := 0; i < 20; i++ {
		last = m.Send(0, 1, 5, 0)
	}
	if last <= a {
		t.Errorf("over-subscribed link did not delay: first=%d last=%d", a, last)
	}
	if m.QueuedCycles() == 0 {
		t.Error("no queueing recorded under over-subscription")
	}
	// A new window clears the congestion.
	fresh := m.Send(0, 1, 5, 1<<20)
	if fresh != 1<<20+7 {
		t.Errorf("new window still congested: %d", fresh)
	}
}

func TestDisjointPathsDoNotInterfere(t *testing.T) {
	m := New(DefaultConfig())
	a := m.Send(0, 1, 5, 0)
	b := m.Send(4, 5, 5, 0) // different row, disjoint links
	if a != b {
		t.Errorf("disjoint paths interfered: a=%d b=%d", a, b)
	}
}

func TestFlitsFor(t *testing.T) {
	m := New(DefaultConfig())
	if m.FlitsFor(0) != 1 {
		t.Errorf("control packet flits = %d, want 1", m.FlitsFor(0))
	}
	if m.FlitsFor(64) != 5 {
		t.Errorf("data packet flits = %d, want 5", m.FlitsFor(64))
	}
}

func TestStatsAndReset(t *testing.T) {
	m := New(DefaultConfig())
	m.Send(0, 15, 5, 0)
	if m.Packets() != 1 || m.Flits() != 30 { // 6 hops * 5 flits
		t.Errorf("packets=%d flits=%d", m.Packets(), m.Flits())
	}
	m.Reset()
	if m.Packets() != 0 || m.Flits() != 0 || m.QueuedCycles() != 0 {
		t.Error("reset incomplete")
	}
	// After reset, zero-load latency is restored.
	if got := m.Send(0, 1, 1, 0); got != 3 {
		t.Errorf("post-reset latency %d, want 3", got)
	}
}

// TestAuditAcrossStatsReset pins the drain invariant on both sides of a
// statistics reset: flits booked before the reset are accounted for while no
// packet has been injected since, and link traffic nothing injected — before
// or after — is still a violation.
func TestAuditAcrossStatsReset(t *testing.T) {
	m := New(DefaultConfig())
	m.Send(0, 15, 5, 0)
	m.ResetStats()
	if errs := m.Audit(); len(errs) != 0 {
		t.Fatalf("warm-up flits on the links after ResetStats audited dirty: %v", errs)
	}
	m.Send(3, 12, 1, 70) // a new window's packet
	if errs := m.Audit(); len(errs) != 0 {
		t.Fatalf("healthy mesh audited dirty: %v", errs)
	}

	for name, m := range map[string]*Mesh{
		"fresh": New(DefaultConfig()),
		"reset": func() *Mesh { m := New(DefaultConfig()); m.Send(0, 15, 5, 0); m.ResetStats(); return m }(),
	} {
		m.links[5*numDirs+dirEast].flits += 3 // traffic with no source
		if errs := m.Audit(); len(errs) != 1 || !strings.Contains(errs[0].Error(), "zero packets injected") {
			t.Errorf("%s mesh: sourceless link flits audited as %v", name, errs)
		}
	}
}

// TestRestoreKeepsCarriedTraffic checks that a snapshot taken after a reset
// and before the window's first packet restores into a mesh that audits
// clean, with bytes unchanged by the round trip.
func TestRestoreKeepsCarriedTraffic(t *testing.T) {
	m := New(DefaultConfig())
	m.Send(0, 15, 5, 0)
	m.ResetStats()
	snap := checkpointtest.Save(m.State)

	r := New(DefaultConfig())
	if err := checkpointtest.Load(snap, r.State); err != nil {
		t.Fatal(err)
	}
	if errs := r.Audit(); len(errs) != 0 {
		t.Fatalf("restored packet-less mesh audited dirty: %v", errs)
	}
	if !bytes.Equal(snap, checkpointtest.Save(r.State)) {
		t.Error("snapshot bytes changed across restore")
	}
}

// TestRouteTableIsXY checks every precomputed route against a hop-by-hop
// walk of dimension-order routing (X first), on the paper's mesh and on a
// non-square one, and that meshes of one geometry share one table.
func TestRouteTableIsXY(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), {Width: 3, Height: 5}} {
		m := New(cfg)
		w, n := cfg.Width, cfg.Width*cfg.Height
		for src := range n {
			for dst := range n {
				var want []int32
				x, y, dx, dy := src%w, src/w, dst%w, dst/w
				for x != dx || y != dy {
					from := y*w + x
					dir := dirNorth
					switch {
					case x < dx:
						dir, x = dirEast, x+1
					case x > dx:
						dir, x = dirWest, x-1
					case y < dy:
						dir, y = dirSouth, y+1
					default:
						y--
					}
					want = append(want, int32(from*numDirs+dir))
				}
				got := m.routes.route(Tile(src), Tile(dst))
				if !slices.Equal(got, want) {
					t.Fatalf("%dx%d route %d->%d = %v, want %v", cfg.Width, cfg.Height, src, dst, got, want)
				}
				if len(got) != m.Hops(Tile(src), Tile(dst)) {
					t.Fatalf("%dx%d route %d->%d has %d links, Hops says %d", cfg.Width, cfg.Height, src, dst, len(got), m.Hops(Tile(src), Tile(dst)))
				}
			}
		}
		if New(cfg).routes != m.routes {
			t.Errorf("%dx%d: two meshes built two route tables", cfg.Width, cfg.Height)
		}
	}
}
