// Package memory models main memory as a fixed access latency plus a shared
// bandwidth pipe: 60 ns access latency and 85 GB/s peak bandwidth at 2 GHz
// (the paper's four DDR4 channels), so sustained over-subscription shows up
// as queueing delay.
package memory

// The memory of Table III.
const (
	// latencyCycles is the unloaded access latency (60 ns at 2 GHz = 120).
	latencyCycles = 120
	// deciBytesPerCycle is the peak bandwidth (85 GB/s at 2 GHz = 42.5
	// B/cycle, expressed in tenths to stay integral).
	deciBytesPerCycle = 425
)

// DRAM is the shared memory model. Not safe for concurrent use.
type DRAM struct {
	busyUntil uint64
	deciDebt  uint64 // fractional service time carry, in deci-cycles

	accesses uint64
	queued   uint64
}

// New returns an idle memory model.
func New() *DRAM { return &DRAM{} }

// Access issues a transfer of the given bytes at cycle and returns the
// completion cycle: queue wait + fixed latency + serialization.
func (d *DRAM) Access(cycle uint64, bytes int) uint64 {
	d.accesses++
	start := cycle
	if d.busyUntil > start {
		d.queued += d.busyUntil - start
		start = d.busyUntil
	}
	// Service cycles = bytes / (DeciBytesPerCycle/10) = bytes*10 / deci-rate,
	// with the remainder carried into the next access.
	deci := uint64(bytes)*10 + d.deciDebt
	service := deci / deciBytesPerCycle
	d.deciDebt = deci % deciBytesPerCycle
	if service == 0 {
		service = 1
	}
	d.busyUntil = start + service
	return start + service + latencyCycles
}

// Accesses returns the number of transfers served.
func (d *DRAM) Accesses() uint64 { return d.accesses }

// QueuedCycles returns cumulative bandwidth-queueing delay.
func (d *DRAM) QueuedCycles() uint64 { return d.queued }

// ResetStats zeroes the statistics, leaving the bandwidth pipe state intact
// (used at the warm-up/measurement boundary).
func (d *DRAM) ResetStats() { d.accesses, d.queued = 0, 0 }

// Reset clears state and statistics.
func (d *DRAM) Reset() { *d = DRAM{} }
