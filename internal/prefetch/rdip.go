package prefetch

import (
	"dnc/internal/isa"
)

// RDIP (Kolli, Saidi, Wenisch; MICRO 2013 — the paper's reference [18])
// observes that the L1i miss working set is strongly correlated with the
// program's call-stack context. It hashes the top of the return address
// stack into a signature, records the misses observed under each signature,
// and prefetches a signature's recorded miss set as soon as a call or
// return switches the context to it — giving roughly one call-depth of
// lookahead.
type RDIP struct {
	Base
	*ConvBTB

	entries []rdipEntry
	mask    uint64

	// shadow return-address stack for signature computation.
	ras []isa.Addr

	sig uint64

	// Recorded and Issued count miss-table activity.
	Recorded uint64
	Issued   uint64
}

// rdipBlocksPerSig bounds the miss set stored per signature (RDIP's miss
// table stores a handful of cache-block addresses per entry).
const rdipBlocksPerSig = 8

type rdipEntry struct {
	valid  bool
	tag    uint16
	blocks [rdipBlocksPerSig]isa.BlockID
	n      uint8
	next   uint8 // FIFO replacement cursor within the miss set
}

// NewRDIP returns an RDIP design with the given signature-table entries
// (power of two).
func NewRDIP(entries, btbEntries int) *RDIP {
	if entries&(entries-1) != 0 {
		panic("prefetch: RDIP entries must be a power of two")
	}
	return &RDIP{
		ConvBTB: NewConvBTB(btbEntries, 4),
		entries: make([]rdipEntry, entries),
		mask:    uint64(entries - 1),
		ras:     make([]isa.Addr, 0, 16),
	}
}

// Name implements Design.
func (*RDIP) Name() string { return "RDIP" }

// signature hashes the top four shadow-RAS entries.
func (d *RDIP) signature() uint64 {
	var h uint64 = 1469598103934665603 // FNV offset
	n := len(d.ras)
	for i := 0; i < 4 && i < n; i++ {
		h ^= uint64(d.ras[n-1-i]) >> 2
		h *= 1099511628211
	}
	return h
}

func (d *RDIP) entry(sig uint64) *rdipEntry {
	return &d.entries[sig&d.mask]
}

func tagOfSig(sig uint64) uint16 { return uint16(sig >> 48) }

// OnDemand implements Design: record misses under the current signature.
func (d *RDIP) OnDemand(b isa.BlockID, hit bool, _ [2]isa.Addr) {
	if hit {
		return
	}
	e := d.entry(d.sig)
	tag := tagOfSig(d.sig)
	if !e.valid || e.tag != tag {
		*e = rdipEntry{valid: true, tag: tag}
	}
	for i := 0; i < int(e.n); i++ {
		if e.blocks[i] == b {
			return
		}
	}
	if int(e.n) < rdipBlocksPerSig {
		e.blocks[e.n] = b
		e.n++
	} else {
		e.blocks[e.next] = b
		e.next = (e.next + 1) % rdipBlocksPerSig
	}
	d.Recorded++
}

// OnRetire implements Retirer: calls and returns switch the signature and
// trigger the new context's miss set.
func (d *RDIP) OnRetire(inst isa.Inst, taken bool, target isa.Addr) {
	switch inst.Kind {
	case isa.KindCall, isa.KindIndirect:
		if !taken {
			return
		}
		d.ras = pushBounded(d.ras, inst.NextPC(), cap(d.ras))
	case isa.KindReturn:
		pop(&d.ras)
	default:
		return
	}
	d.sig = d.signature()
	d.prefetchSet(d.sig)
}

// prefetchSet issues the signature's recorded miss set.
func (d *RDIP) prefetchSet(sig uint64) {
	e := d.entry(sig)
	if !e.valid || e.tag != tagOfSig(sig) {
		return
	}
	env := d.E()
	for i := 0; i < int(e.n); i++ {
		b := e.blocks[i]
		if env.L1iContains(b) || env.InFlight(b) {
			continue
		}
		if env.IssuePrefetch(b) {
			d.Issued++
		}
	}
}

// StorageBits implements Design: tag + up to 8 block addresses per entry.
func (d *RDIP) StorageBits() int {
	return len(d.entries) * (16 + rdipBlocksPerSig*46)
}
