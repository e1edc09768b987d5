// Package oracle is the functional reference model the differential
// validation harness (internal/sim/difftest) checks the timing simulator
// against. The simulator is timing-directed and trace-driven: the committed
// path of every core is fully determined by (program, walker seed), and a
// frontend design may change *when* things happen but never *what* happens.
// The oracle recomputes the architectural ground truth independently — by
// replaying the same seeded walker and nothing else — so any disagreement
// with the timing simulator is a simulator bug by construction.
//
// The model is deliberately trivial: no caches, no pipelines, no designs.
// It produces three reference streams from one walker replay:
//
//   - the retired instruction stream (what every OnRetire must observe),
//   - the demand block-transition sequence — the run-length collapse of
//     BlockOf(PC) over the committed stream (what every OnDemand must
//     observe, one call per transition),
//   - the per-block compulsory (first-touch) classification of each
//     transition as sequential (block == previous block + 1) or
//     discontinuous, which is what the L1i's compulsory misses and the
//     paper's Figure 2 seq/disc split are made of.
//
// Alongside the streams it accumulates architectural counters (retired
// instructions per kind, taken transfers, distinct static branch sites — the
// BTB's compulsory working set) and an order-sensitive FNV-1a digest of the
// retired stream, so two runs can be compared cheaply at checkpoints.
package oracle

import (
	wl "dnc/internal/cfg"
	"dnc/internal/checkpoint"
	"dnc/internal/isa"
)

// Transition is one demand block transition of the committed fetch stream.
type Transition struct {
	// Block is the block fetched into.
	Block isa.BlockID
	// Seq reports a sequential transition: Block == previous block + 1.
	// The first transition of a stream is never sequential.
	Seq bool
	// First reports the first touch of Block in this stream — on a cold
	// cache with no prefetching this transition is a compulsory miss.
	First bool
}

// Counters are the architectural counts of a retired-stream prefix.
type Counters struct {
	Retired      uint64
	CondBranches uint64
	Jumps        uint64
	Calls        uint64
	Returns      uint64
	Indirects    uint64
	Loads        uint64
	Stores       uint64
	// Taken counts retired control transfers that actually transferred
	// (conditional branches that went the taken way, plus executed jumps,
	// calls, returns and indirects; elided deep calls don't count).
	Taken uint64
}

// Model replays one core's committed stream and serves the reference
// streams incrementally, in lockstep with a timing simulation. The retire
// and fetch reference positions advance independently (fetch runs ahead of
// retire by the ROB contents), but both replay the identical walker.
type Model struct {
	prog *wl.Program
	seed int64

	// retire replays the stream at the commit point.
	retire *wl.Walker
	// fetch replays the same stream at the fetch point, collapsed into
	// block transitions through a one-step lookahead.
	fetch    *wl.Walker
	fstep    wl.Step
	fvalid   bool
	prev     isa.BlockID
	havePrev bool

	touched     map[isa.BlockID]struct{}
	branchSites map[isa.Addr]struct{}

	// C accumulates the retired-stream counters.
	C Counters
	// Transitions, FirstTouches, SeqFirst and DiscFirst accumulate the
	// transition-stream statistics; SeqFirst+DiscFirst == FirstTouches.
	Transitions  uint64
	FirstTouches uint64
	SeqFirst     uint64
	DiscFirst    uint64

	digest uint64
}

// FNV-1a parameters for the retired-stream digest.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// New returns a model replaying prog under the given walker seed — the same
// (program, seed) pair a simulated core's stream was built from.
func New(prog *wl.Program, seed int64) *Model {
	return &Model{
		prog:        prog,
		seed:        seed,
		retire:      wl.NewWalker(prog, seed),
		fetch:       wl.NewWalker(prog, seed),
		touched:     make(map[isa.BlockID]struct{}),
		branchSites: make(map[isa.Addr]struct{}),
		digest:      fnvOffset,
	}
}

// Seed returns the walker seed the model replays.
func (m *Model) Seed() int64 { return m.seed }

// NextRetire fills *s with the next committed instruction of the reference
// stream and folds it into the counters and digest.
func (m *Model) NextRetire(s *wl.Step) {
	m.retire.Next(s)
	m.C.Retired++
	switch s.Inst.Kind {
	case isa.KindCondBranch:
		m.C.CondBranches++
	case isa.KindJump:
		m.C.Jumps++
	case isa.KindCall:
		m.C.Calls++
	case isa.KindReturn:
		m.C.Returns++
	case isa.KindIndirect:
		m.C.Indirects++
	case isa.KindLoad:
		m.C.Loads++
	case isa.KindStore:
		m.C.Stores++
	}
	if s.Inst.Kind.IsBranch() {
		m.branchSites[s.Inst.PC] = struct{}{}
		if s.Taken {
			m.C.Taken++
		}
	}
	m.fold(uint64(s.Inst.PC))
	m.fold(uint64(s.Inst.Kind))
	if s.Taken {
		m.fold(1)
	} else {
		m.fold(0)
	}
	m.fold(uint64(s.TargetPC))
}

func (m *Model) fold(v uint64) {
	for i := 0; i < 8; i++ {
		m.digest ^= v & 0xFF
		m.digest *= fnvPrime
		v >>= 8
	}
}

// Digest returns the FNV-1a digest of the retired prefix served so far. It
// is order-sensitive: two streams with equal digests at equal lengths are
// equal with overwhelming probability.
func (m *Model) Digest() uint64 { return m.digest }

// BranchSites returns the number of distinct static branch addresses
// retired so far — the BTB's compulsory working set for this prefix.
func (m *Model) BranchSites() int { return len(m.branchSites) }

// NextTransition consumes committed instructions from the fetch-point
// replay until the block changes, returning the transition the fetch unit
// must perform next. Calling it once per observed OnDemand keeps the model
// in lockstep with the simulated fetch stream.
func (m *Model) NextTransition() Transition {
	for {
		if !m.fvalid {
			m.fetch.Next(&m.fstep)
			m.fvalid = true
		}
		b := isa.BlockOf(m.fstep.Inst.PC)
		if m.havePrev && b == m.prev {
			// Same block: the fetch unit delivers without a new access.
			m.fvalid = false
			continue
		}
		tr := Transition{Block: b, Seq: m.havePrev && b == m.prev+1}
		if _, ok := m.touched[b]; !ok {
			m.touched[b] = struct{}{}
			tr.First = true
			m.FirstTouches++
			if tr.Seq {
				m.SeqFirst++
			} else {
				m.DiscFirst++
			}
		}
		m.Transitions++
		m.prev, m.havePrev = b, true
		// The instruction that crossed the boundary is delivered inside the
		// new block: consume it.
		m.fvalid = false
		return tr
	}
}

// State walks the model for checkpointing, so a difftest-shimmed run
// restores the oracle exactly where the interrupted run left it. The sets go
// in sorted order, keeping shimmed snapshots byte-deterministic like the
// rest of the simulator's. The model must have been built over the same
// program and seed; maxSteps bounds both replays (see Walker.State).
func (m *Model) State(c *checkpoint.Codec, maxSteps uint64) {
	c.Begin("oracle")
	c.I64(&m.seed)
	m.retire.State(c, maxSteps)
	m.fetch.State(c, maxSteps)
	c.Bool(&m.fvalid)
	if m.fvalid {
		m.fstep.State(c)
	}
	checkpoint.Word(c, &m.prev)
	c.Bool(&m.havePrev)

	c.U64(&m.C.Retired)
	c.U64(&m.C.CondBranches)
	c.U64(&m.C.Jumps)
	c.U64(&m.C.Calls)
	c.U64(&m.C.Returns)
	c.U64(&m.C.Indirects)
	c.U64(&m.C.Loads)
	c.U64(&m.C.Stores)
	c.U64(&m.C.Taken)
	c.U64(&m.Transitions)
	c.U64(&m.FirstTouches)
	c.U64(&m.SeqFirst)
	c.U64(&m.DiscFirst)
	c.U64(&m.digest)

	checkpoint.Set(c, "touched blocks", m.touched, checkpoint.Unbounded)
	checkpoint.Set(c, "branch sites", m.branchSites, checkpoint.Unbounded)
	c.End()
}
