package core

import "dnc/internal/obs"

// Metrics are the per-core measurement counters collected during the
// measurement window. They are plain fields (not a registry) because the
// fetch loop updates them every cycle.
type Metrics struct {
	Cycles  uint64
	Retired uint64

	// Demand instruction-fetch behaviour (committed path only).
	DemandAccesses uint64
	DemandMisses   uint64
	SeqMisses      uint64 // miss block == previously accessed block + 1
	DiscMisses     uint64
	LateMisses     uint64 // miss merged into an in-flight prefetch

	// Prefetch behaviour.
	PrefetchesIssued uint64
	PrefetchFills    uint64
	UsefulPrefetches uint64 // prefetched blocks demanded before eviction
	UselessEvicts    uint64 // prefetched blocks evicted untouched

	// Covered memory access latency (Figure 4/13): cycles of fetch latency
	// covered by prefetching over the latency of all prefetched-and-
	// demanded blocks.
	CMALCovered uint64
	CMALTotal   uint64

	// Stall cycles by cause (zero-delivery cycles). Together with
	// BusyCycles they partition the window: every cycle is either busy
	// (>=1 delivered slot) or charged to exactly one cause — sim.Audit
	// enforces the conservation (see StallCycles).
	StallBackend   uint64
	StallICache    uint64
	StallFTQ       uint64
	StallBTB       uint64
	StallMispred   uint64
	StallStartup   uint64 // cycles before the first instruction delivered
	BusyCycles     uint64 // cycles that delivered at least one instruction
	DeliveredSlots uint64

	// Branch behaviour.
	CondBranches  uint64
	Mispredicts   uint64
	BTBMissEvents uint64

	// Cache lookups (Figure 14): demand + prefetcher probes of the L1i tag
	// array.
	CacheLookups uint64

	// External bandwidth (Figure 5): requests sent from the L1i level to
	// the lower hierarchy (demand fetches + prefetches + wrong path).
	ExtRequests uint64

	// LLC latency as observed by instruction fetches (Figure 5).
	LLCLatencySum uint64
	LLCLatencyCnt uint64

	// Data side.
	LoadCount  uint64
	L1DMisses  uint64
	StoreCount uint64

	// Wrong-path activity.
	WrongPathFetches uint64
}

// IPC returns retired instructions per cycle.
func (m *Metrics) IPC() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Retired) / float64(m.Cycles)
}

// FrontendStalls returns the L1i/BTB-induced stall cycles: instruction-miss
// waits, empty-FTQ waits, and BTB-miss redirect bubbles (the denominator of
// the paper's FSCR).
func (m *Metrics) FrontendStalls() uint64 {
	return m.StallICache + m.StallFTQ + m.StallBTB
}

// chargeStallN accounts n consecutive zero-delivery cycles to one cause.
// StallNone charges nothing (a defensive no-op; the fetch engine attributes
// every idle cycle, and the conservation audit catches any hole).
func (m *Metrics) chargeStallN(cause obs.StallCause, n uint64) {
	switch cause {
	case obs.StallICache:
		m.StallICache += n
	case obs.StallFTQ:
		m.StallFTQ += n
	case obs.StallBTB:
		m.StallBTB += n
	case obs.StallMispred:
		m.StallMispred += n
	case obs.StallBackend:
		m.StallBackend += n
	case obs.StallStartup:
		m.StallStartup += n
	}
}

// StallBreakdown returns the per-cause stall cycles indexed by
// obs.StallCause; the StallNone slot holds BusyCycles, so the entries sum
// to Cycles when attribution is conserved.
func (m *Metrics) StallBreakdown() [obs.NumStallCauses]uint64 {
	var out [obs.NumStallCauses]uint64
	out[obs.StallNone] = m.BusyCycles
	out[obs.StallICache] = m.StallICache
	out[obs.StallFTQ] = m.StallFTQ
	out[obs.StallBTB] = m.StallBTB
	out[obs.StallMispred] = m.StallMispred
	out[obs.StallBackend] = m.StallBackend
	out[obs.StallStartup] = m.StallStartup
	return out
}

// StallCycles returns the total attributed stall cycles across all causes.
// Conservation — BusyCycles + StallCycles() == Cycles — is a structural
// invariant checked by the core's Audit.
func (m *Metrics) StallCycles() uint64 {
	return m.StallBackend + m.StallICache + m.StallFTQ + m.StallBTB +
		m.StallMispred + m.StallStartup
}

// CMAL returns the covered-memory-access-latency fraction.
func (m *Metrics) CMAL() float64 {
	if m.CMALTotal == 0 {
		return 0
	}
	return float64(m.CMALCovered) / float64(m.CMALTotal)
}

// SeqMissFraction returns the sequential share of demand misses (Figure 2).
func (m *Metrics) SeqMissFraction() float64 {
	if m.DemandMisses == 0 {
		return 0
	}
	return float64(m.SeqMisses) / float64(m.DemandMisses)
}

// AvgLLCLatency returns the mean L1i-observed LLC access latency.
func (m *Metrics) AvgLLCLatency() float64 {
	if m.LLCLatencyCnt == 0 {
		return 0
	}
	return float64(m.LLCLatencySum) / float64(m.LLCLatencyCnt)
}

// MPKI returns misses per kilo-instruction for the given miss count.
func (m *Metrics) MPKI(misses uint64) float64 {
	if m.Retired == 0 {
		return 0
	}
	return float64(misses) * 1000 / float64(m.Retired)
}

// Add accumulates other into m (multi-core aggregation).
func (m *Metrics) Add(o *Metrics) {
	m.Cycles += o.Cycles
	m.Retired += o.Retired
	m.DemandAccesses += o.DemandAccesses
	m.DemandMisses += o.DemandMisses
	m.SeqMisses += o.SeqMisses
	m.DiscMisses += o.DiscMisses
	m.LateMisses += o.LateMisses
	m.PrefetchesIssued += o.PrefetchesIssued
	m.PrefetchFills += o.PrefetchFills
	m.UsefulPrefetches += o.UsefulPrefetches
	m.UselessEvicts += o.UselessEvicts
	m.CMALCovered += o.CMALCovered
	m.CMALTotal += o.CMALTotal
	m.StallBackend += o.StallBackend
	m.StallICache += o.StallICache
	m.StallFTQ += o.StallFTQ
	m.StallBTB += o.StallBTB
	m.StallMispred += o.StallMispred
	m.StallStartup += o.StallStartup
	m.BusyCycles += o.BusyCycles
	m.DeliveredSlots += o.DeliveredSlots
	m.CondBranches += o.CondBranches
	m.Mispredicts += o.Mispredicts
	m.BTBMissEvents += o.BTBMissEvents
	m.CacheLookups += o.CacheLookups
	m.ExtRequests += o.ExtRequests
	m.LLCLatencySum += o.LLCLatencySum
	m.LLCLatencyCnt += o.LLCLatencyCnt
	m.LoadCount += o.LoadCount
	m.L1DMisses += o.L1DMisses
	m.StoreCount += o.StoreCount
	m.WrongPathFetches += o.WrongPathFetches
}
