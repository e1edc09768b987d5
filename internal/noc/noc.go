// Package noc models the on-chip interconnect: a 2D mesh of tiles with XY
// dimension-order routing, a 2-stage router pipeline plus single-cycle link
// traversal per hop (3 cycles/hop at zero load), and per-link serialization
// that produces queueing delay under load. Useless prefetches raising NoC
// traffic — and with it the average LLC access latency (Figure 5 of the
// paper) — emerge from this contention model.
package noc

import "dnc/internal/obs"

// Tile identifies a mesh node (core + LLC slice).
type Tile int

// The paper's 4x4 mesh, with a 2-stage speculative router pipeline and
// 1-cycle link traversal.
const (
	// Width and Height are the mesh's tiles per row and per column, Tiles
	// its tiles in all.
	Width, Height = 4, 4
	Tiles         = Width * Height
	// hopCycles is the zero-load latency per hop (router pipeline + link).
	hopCycles = 3
	// flitBytes is the link width; a 64-byte data response is
	// 1 + 64/flitBytes flits.
	flitBytes = 16
)

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
	// links is indexed by from*numDirs + direction.
	links []linkWindow

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
func New() *Mesh {
	return &Mesh{links: make([]linkWindow, Tiles*numDirs)}
}

// routeTable holds the XY route of every (src, dst) tile pair: the links
// route src*Tiles+dst traverses, in order, are links[start[r]:start[r+1]],
// each a Mesh.links index.
type routeTable struct {
	start []int32
	links []int32
}

// routes is the mesh's route table. It depends on the geometry alone and is
// never written after it is built, so every mesh shares it.
var routes = buildRoutes()

// buildRoutes walks dimension-order routing, X first, for every pair.
func buildRoutes() *routeTable {
	r := &routeTable{start: make([]int32, 0, Tiles*Tiles+1)}
	for src := range Tiles {
		for dst := range Tiles {
			r.start = append(r.start, int32(len(r.links)))
			x, y := src%Width, src/Width
			dx, dy := dst%Width, dst/Width
			for x != dx || y != dy {
				tile := y*Width + x
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
				r.links = append(r.links, int32(tile*numDirs+dir))
			}
		}
	}
	r.start = append(r.start, int32(len(r.links)))
	return r
}

// route returns the link indices of the XY route from src to dst.
func (r *routeTable) route(src, dst Tile) []int32 {
	i := int(src)*Tiles + int(dst)
	return r.links[r.start[i]:r.start[i+1]]
}

// FlitsFor returns the flit count of a packet with the given payload bytes
// (one header flit plus payload flits).
func (m *Mesh) FlitsFor(payloadBytes int) int {
	return 1 + (payloadBytes+flitBytes-1)/flitBytes
}

func (m *Mesh) xy(t Tile) (int, int) {
	return int(t) % Width, int(t) / Width
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
	t := cycle
	for _, li := range routes.route(src, dst) {
		lw := &m.links[li]
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
		t += hopCycles + delay
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
		n += m.links[i].flits
	}
	return n
}

// Reset clears link state and statistics.
func (m *Mesh) Reset() {
	clear(m.links)
	m.flits, m.packets, m.queued, m.carried = 0, 0, 0, 0
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
