package prefetch

import (
	"dnc/internal/checkpoint"
	"dnc/internal/isa"
)

// temporalStream is the temporal-streaming part Confluence and PIF share: a
// circular history of records, a direct-mapped, partially tagged index from
// a trigger block to its latest history position, and a replay stream that a
// demand miss on an indexed block restarts lookahead records ahead, each
// demand hit advances by one record, and a redirect kills. The design logs
// the records: Confluence one missed block each, PIF one spatial region.
type temporalStream[R streamRecord] struct {
	Base

	// hist is the circular history buffer.
	hist    []R
	histPos int
	full    bool

	// The index maps a trigger block to its latest history position.
	idxValid []bool
	idxTag   []uint16
	idxPos   []int32
	idxMask  uint64

	// Active replay stream.
	streamPos  int
	streamLive bool

	// lookahead is how many records a restarted stream replays at once.
	lookahead int

	// blocks is the replay's expansion buffer, sized for the widest record.
	blocks [pifRegionBits]isa.BlockID

	// StreamStarts and StreamPrefetches count replay activity.
	StreamStarts     uint64
	StreamPrefetches uint64
}

// streamRecord is one history record of a temporalStream.
type streamRecord interface {
	// appendBlocks appends the blocks the record stands for to dst.
	appendBlocks(dst []isa.BlockID) []isa.BlockID
}

// missRecord is Confluence's record: one missed block.
type missRecord isa.BlockID

func (r missRecord) appendBlocks(dst []isa.BlockID) []isa.BlockID {
	return append(dst, isa.BlockID(r))
}

func newTemporalStream[R streamRecord](name string, histEntries, indexEntries, lookahead int) temporalStream[R] {
	if indexEntries&(indexEntries-1) != 0 {
		panic("prefetch: " + name + " index entries must be a power of two")
	}
	return temporalStream[R]{
		hist:      make([]R, histEntries),
		idxValid:  make([]bool, indexEntries),
		idxTag:    make([]uint16, indexEntries),
		idxPos:    make([]int32, indexEntries),
		idxMask:   uint64(indexEntries - 1),
		lookahead: lookahead,
	}
}

// slot returns b's index entry and partial tag.
func (s *temporalStream[R]) slot(b isa.BlockID) (uint64, uint16) {
	return uint64(b) & s.idxMask, uint16((uint64(b) >> 14) & 0x3FF)
}

// record appends r to the history and indexes it under its trigger block.
func (s *temporalStream[R]) record(trigger isa.BlockID, r R) {
	s.hist[s.histPos] = r
	i, tag := s.slot(trigger)
	s.idxValid[i] = true
	s.idxTag[i] = tag
	s.idxPos[i] = int32(s.histPos)
	s.histPos++
	if s.histPos == len(s.hist) {
		s.histPos = 0
		s.full = true
	}
}

// OnDemand implements Design: a hit advances a live stream by one record; a
// miss on an indexed block (re)starts the stream there.
func (s *temporalStream[R]) OnDemand(b isa.BlockID, hit bool, _ [2]isa.Addr) {
	if hit {
		if s.streamLive {
			s.advance(1)
		}
		return
	}
	if i, tag := s.slot(b); s.idxValid[i] && s.idxTag[i] == tag {
		s.streamPos = int(s.idxPos[i])
		s.streamLive = true
		s.StreamStarts++
		s.advance(s.lookahead)
	}
}

// advance replays the next n records, prefetching their absent blocks.
func (s *temporalStream[R]) advance(n int) {
	env := s.E()
	for k := 0; k < n; k++ {
		s.streamPos++
		if s.streamPos >= len(s.hist) {
			if !s.full {
				s.streamLive = false
				return
			}
			s.streamPos = 0
		}
		// Stop at the write head: history beyond it is stale.
		if s.streamPos == s.histPos {
			s.streamLive = false
			return
		}
		for _, b := range s.hist[s.streamPos].appendBlocks(s.blocks[:0]) {
			if env.L1iContains(b) || env.InFlight(b) {
				continue
			}
			if env.IssuePrefetch(b) {
				s.StreamPrefetches++
			}
		}
	}
}

// OnRedirect implements Design: redirects kill the active stream.
func (s *temporalStream[R]) OnRedirect(isa.Addr) { s.streamLive = false }

// indexBits is the index's storage: a 10-bit tag and a 15-bit position per
// entry.
func (s *temporalStream[R]) indexBits() int { return len(s.idxValid) * (10 + 15) }

// state walks the history (each record through walk), the index and the
// replay position; name prefixes the geometry checks' messages.
func (s *temporalStream[R]) state(c *checkpoint.Codec, name string, walk func(*R)) {
	c.Fixed(name+" history entries", len(s.hist))
	for i := range s.hist {
		walk(&s.hist[i])
	}
	c.Int(&s.histPos)
	c.Bool(&s.full)
	c.Fixed(name+" index entries", len(s.idxValid))
	for i := range s.idxValid {
		c.Bool(&s.idxValid[i])
		c.U16(&s.idxTag[i])
		checkpoint.Word32(c, &s.idxPos[i])
	}
	c.Int(&s.streamPos)
	c.Bool(&s.streamLive)
}
