// Package noc models the on-chip interconnect: a 2D mesh of tiles with XY
// dimension-order routing, a 2-stage router pipeline plus single-cycle link
// traversal per hop (3 cycles/hop at zero load), and per-link serialization
// that produces queueing delay under load. Useless prefetches raising NoC
// traffic — and with it the average LLC access latency (Figure 5 of the
// paper) — emerge from this contention model.
package noc

import (
	"fmt"

	"dnc/internal/obs"
)

// Tile identifies a mesh node (core + LLC slice).
type Tile int

// Config describes the mesh.
type Config struct {
	Width, Height int
	// HopCycles is the zero-load latency per hop (router pipeline + link).
	HopCycles uint64
	// FlitBytes is the link width; a 64-byte data response is
	// 1 + 64/FlitBytes flits.
	FlitBytes int
}

// DefaultConfig is the paper's 4x4 mesh with a 2-stage speculative router
// pipeline and 1-cycle link traversal.
func DefaultConfig() Config {
	return Config{Width: 4, Height: 4, HopCycles: 3, FlitBytes: 16}
}

// linkWindow tracks a directed link's utilization over a fixed cycle
// window. Requests and responses are injected out of time order (a response
// is booked at its future departure time), so strict busy-until
// serialization would make early packets queue behind far-future
// reservations; windowed bandwidth accounting instead delays packets only
// when a window is over-subscribed (more flits than cycles).
type linkWindow struct {
	window uint64
	flits  uint64
}

// windowShift sets the contention window to 64 cycles.
const windowShift = 6

// Mesh is the interconnect state. It is not safe for concurrent use; the
// simulator serializes traffic injection.
type Mesh struct {
	cfg Config
	// links is indexed by [from][direction].
	links [][]linkWindow

	// Stats.
	flits   uint64
	packets uint64
	queued  uint64 // total cycles of over-subscription delay

	// carried is what the link windows held when the statistics were last
	// zeroed: traffic whose packets were counted in the previous window.
	// Derived state for Audit, not checkpointed.
	carried uint64

	// lat, when set, observes each packet's injection-to-delivery latency
	// (hops, serialization, and queueing included).
	lat *obs.Histogram
}

// Link directions out of a tile.
const (
	dirEast = iota
	dirWest
	dirNorth
	dirSouth
	numDirs
)

// New returns an idle mesh.
func New(cfg Config) *Mesh {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic(fmt.Sprintf("noc: bad mesh %dx%d", cfg.Width, cfg.Height))
	}
	if cfg.HopCycles == 0 {
		cfg.HopCycles = 3
	}
	if cfg.FlitBytes == 0 {
		cfg.FlitBytes = 16
	}
	n := cfg.Width * cfg.Height
	links := make([][]linkWindow, n)
	for i := range links {
		links[i] = make([]linkWindow, numDirs)
	}
	return &Mesh{cfg: cfg, links: links}
}

// Tiles returns the number of tiles.
func (m *Mesh) Tiles() int { return m.cfg.Width * m.cfg.Height }

// FlitsFor returns the flit count of a packet with the given payload bytes
// (one header flit plus payload flits).
func (m *Mesh) FlitsFor(payloadBytes int) int {
	return 1 + (payloadBytes+m.cfg.FlitBytes-1)/m.cfg.FlitBytes
}

func (m *Mesh) xy(t Tile) (int, int) {
	return int(t) % m.cfg.Width, int(t) / m.cfg.Width
}

// Hops returns the XY-route hop count between two tiles.
func (m *Mesh) Hops(src, dst Tile) int {
	sx, sy := m.xy(src)
	dx, dy := m.xy(dst)
	return abs(dx-sx) + abs(dy-sy)
}

// Send injects a packet of flits at cycle and returns the delivery cycle at
// dst. The head flit pays the router pipeline at each hop; each traversed
// link accounts the packet's flits against its window capacity, and the
// packet is delayed by any over-subscription it finds (queueing under
// load).
func (m *Mesh) Send(src, dst Tile, flits int, cycle uint64) uint64 {
	m.packets++
	if src == dst {
		// Local slice: no network traversal, a single-cycle forward.
		m.lat.Observe(1)
		return cycle + 1
	}
	x, y := m.xy(src)
	dx, dy := m.xy(dst)
	t := cycle
	for x != dx || y != dy {
		tile := Tile(y*m.cfg.Width + x)
		var dir int
		switch {
		case x < dx:
			dir, x = dirEast, x+1
		case x > dx:
			dir, x = dirWest, x-1
		case y < dy:
			dir, y = dirSouth, y+1
		default:
			dir, y = dirNorth, y-1
		}
		lw := &m.links[tile][dir]
		if w := t >> windowShift; w != lw.window {
			lw.window = w
			lw.flits = 0
		}
		lw.flits += uint64(flits)
		m.flits += uint64(flits)
		var delay uint64
		if cap := uint64(1) << windowShift; lw.flits > cap {
			delay = lw.flits - cap
			m.queued += delay
		}
		t += m.cfg.HopCycles + delay
	}
	// Tail flits of the packet arrive behind the head.
	t += uint64(flits) - 1
	m.lat.Observe(t - cycle)
	return t
}

// SetObs attaches a packet-latency histogram (nil detaches).
func (m *Mesh) SetObs(lat *obs.Histogram) { m.lat = lat }

// Packets returns the number of packets injected.
func (m *Mesh) Packets() uint64 { return m.packets }

// Flits returns the total link-flit traversals.
func (m *Mesh) Flits() uint64 { return m.flits }

// QueuedCycles returns the cumulative cycles packets waited on busy links; a
// direct read on contention.
func (m *Mesh) QueuedCycles() uint64 { return m.queued }

// ResetStats zeroes the statistics, leaving link occupancy intact (used at
// the warm-up/measurement boundary).
func (m *Mesh) ResetStats() {
	m.flits, m.packets, m.queued = 0, 0, 0
	m.carried = m.linkFlits()
}

// linkFlits sums the flits booked on every link's current window.
func (m *Mesh) linkFlits() uint64 {
	var n uint64
	for i := range m.links {
		for d := range m.links[i] {
			n += m.links[i][d].flits
		}
	}
	return n
}

// Reset clears link state and statistics.
func (m *Mesh) Reset() {
	for i := range m.links {
		for d := range m.links[i] {
			m.links[i][d] = linkWindow{}
		}
	}
	m.flits, m.packets, m.queued, m.carried = 0, 0, 0, 0
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
