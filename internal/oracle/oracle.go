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
	"sort"

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

// Snapshot serialises the model for checkpointing, so a difftest-shimmed
// run restores the oracle exactly where the interrupted run left it.
// Everything is encoded in deterministic order (sorted sets), keeping
// shimmed snapshots byte-deterministic like the rest of the simulator's.
func (m *Model) Snapshot(e *checkpoint.Encoder) {
	e.Begin("oracle")
	e.I64(m.seed)
	m.retire.Snapshot(e)
	m.fetch.Snapshot(e)
	e.Bool(m.fvalid)
	if m.fvalid {
		encodeStep(e, &m.fstep)
	}
	e.U64(uint64(m.prev))
	e.Bool(m.havePrev)

	e.U64(m.C.Retired)
	e.U64(m.C.CondBranches)
	e.U64(m.C.Jumps)
	e.U64(m.C.Calls)
	e.U64(m.C.Returns)
	e.U64(m.C.Indirects)
	e.U64(m.C.Loads)
	e.U64(m.C.Stores)
	e.U64(m.C.Taken)
	e.U64(m.Transitions)
	e.U64(m.FirstTouches)
	e.U64(m.SeqFirst)
	e.U64(m.DiscFirst)
	e.U64(m.digest)

	touched := make([]isa.BlockID, 0, len(m.touched))
	for b := range m.touched {
		touched = append(touched, b)
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
	e.Int(len(touched))
	for _, b := range touched {
		e.U64(uint64(b))
	}

	sites := make([]isa.Addr, 0, len(m.branchSites))
	for pc := range m.branchSites {
		sites = append(sites, pc)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	e.Int(len(sites))
	for _, pc := range sites {
		e.U64(uint64(pc))
	}
	e.End()
}

// Restore loads state written by Snapshot into a model built over the same
// program and seed. maxSteps bounds both replays (see Walker.Restore).
func (m *Model) Restore(d *checkpoint.Decoder, maxSteps uint64) error {
	if err := d.Begin("oracle"); err != nil {
		return err
	}
	m.seed = d.I64()
	if err := m.retire.Restore(d, maxSteps); err != nil {
		return err
	}
	if err := m.fetch.Restore(d, maxSteps); err != nil {
		return err
	}
	m.fvalid = d.Bool()
	if m.fvalid {
		decodeStep(d, &m.fstep)
	}
	m.prev = isa.BlockID(d.U64())
	m.havePrev = d.Bool()

	m.C.Retired = d.U64()
	m.C.CondBranches = d.U64()
	m.C.Jumps = d.U64()
	m.C.Calls = d.U64()
	m.C.Returns = d.U64()
	m.C.Indirects = d.U64()
	m.C.Loads = d.U64()
	m.C.Stores = d.U64()
	m.C.Taken = d.U64()
	m.Transitions = d.U64()
	m.FirstTouches = d.U64()
	m.SeqFirst = d.U64()
	m.DiscFirst = d.U64()
	m.digest = d.U64()

	n := d.Count(8)
	m.touched = make(map[isa.BlockID]struct{}, n)
	for i := 0; i < n; i++ {
		m.touched[isa.BlockID(d.U64())] = struct{}{}
	}
	n = d.Count(8)
	m.branchSites = make(map[isa.Addr]struct{}, n)
	for i := 0; i < n; i++ {
		m.branchSites[isa.Addr(d.U64())] = struct{}{}
	}
	return d.End()
}

func encodeStep(e *checkpoint.Encoder, s *wl.Step) {
	e.U64(uint64(s.Inst.PC))
	e.U8(s.Inst.Size)
	e.U8(uint8(s.Inst.Kind))
	e.U64(uint64(s.Inst.Target))
	e.Bool(s.Taken)
	e.U64(uint64(s.NextPC))
	e.U64(uint64(s.TargetPC))
	e.U64(uint64(s.DataAddr))
}

func decodeStep(d *checkpoint.Decoder, s *wl.Step) {
	s.Inst.PC = isa.Addr(d.U64())
	s.Inst.Size = d.U8()
	s.Inst.Kind = isa.Kind(d.U8())
	s.Inst.Target = isa.Addr(d.U64())
	s.Taken = d.Bool()
	s.NextPC = isa.Addr(d.U64())
	s.TargetPC = isa.Addr(d.U64())
	s.DataAddr = isa.Addr(d.U64())
}
