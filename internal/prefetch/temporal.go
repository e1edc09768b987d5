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

	// idx maps a trigger block to its latest history position.
	idx *direct[int32]

	// Active replay stream.
	streamPos  int
	streamLive bool

	// lookahead is how many records a restarted stream replays at once.
	lookahead int

	// blocks is the replay's expansion buffer, sized for the widest record.
	blocks [pifRegionBits]isa.BlockID
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
	return temporalStream[R]{
		hist:      make([]R, histEntries),
		idx:       newDirect[int32](name+" index", indexEntries, 14, 10),
		lookahead: lookahead,
	}
}

// record appends r to the history and indexes it under its trigger block.
func (s *temporalStream[R]) record(trigger isa.BlockID, r R) {
	s.hist[s.histPos] = r
	*s.idx.write(uint64(trigger)) = int32(s.histPos)
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
	if pos := s.idx.lookup(uint64(b)); pos != nil {
		s.streamPos = int(*pos)
		s.streamLive = true
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
			prefetchAbsent(env, b)
		}
	}
}

// OnRedirect implements Design: redirects kill the active stream.
func (s *temporalStream[R]) OnRedirect(isa.Addr) { s.streamLive = false }

// indexBits is the index's storage: a 10-bit tag and a 15-bit position per
// entry.
func (s *temporalStream[R]) indexBits() int { return s.idx.entries() * (10 + 15) }

// state walks the history (each record through walk), the index and the
// replay position; name prefixes the geometry checks' messages.
func (s *temporalStream[R]) state(c *checkpoint.Codec, name string, walk func(*R)) {
	c.Fixed(name+" history entries", len(s.hist))
	for i := range s.hist {
		walk(&s.hist[i])
	}
	c.Int(&s.histPos)
	c.Bool(&s.full)
	s.idx.state(c, name+" index entries", func(pos *int32) { checkpoint.Word32(c, pos) })
	c.Int(&s.streamPos)
	c.Bool(&s.streamLive)
}
