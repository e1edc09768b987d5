package obs

import "dnc/internal/stats"

// Config enables the observability layer for one simulation run.
type Config struct {
	// TraceEvents bounds the event tracer's ring buffer; 0 disables
	// tracing while keeping histograms and gauges on.
	TraceEvents int
}

// SampleEvery is the occupancy-gauge sampling cadence in cycles: fine
// enough to resolve per-window occupancy shifts, coarse enough to stay
// invisible next to the cycle loop.
const SampleEvery = 256

// Registry is a named collection of histograms plus ad-hoc counters,
// snapshotted in registration order at the end of a run. It is not safe for
// concurrent use; the simulator's tick loop is single-threaded per run.
type Registry struct {
	order    []string
	hists    map[string]*Histogram
	counters *stats.Set
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hists:    make(map[string]*Histogram),
		counters: stats.NewSet(),
	}
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := NewHistogram(name, bounds)
	r.hists[name] = h
	r.order = append(r.order, name)
	return h
}

// Counter returns the named event counter, creating it if needed.
func (r *Registry) Counter(name string) *stats.Counter { return r.counters.Counter(name) }

// Reset zeroes every histogram and counter (warm-up/measurement boundary).
func (r *Registry) Reset() {
	for _, n := range r.order {
		r.hists[n].Reset()
	}
	r.counters.Reset()
}

// Snapshot captures every histogram and counter in registration order.
func (r *Registry) Snapshot() ([]HistSnapshot, []stats.CounterValue) {
	hs := make([]HistSnapshot, 0, len(r.order))
	for _, n := range r.order {
		hs = append(hs, r.hists[n].Snapshot())
	}
	return hs, r.counters.Snapshot()
}

// RunObs is a run's observability snapshot, folded into sim.Result. Trace
// events are kept in memory for in-process export (dncsim -trace-out) but
// excluded from JSON: a journaled sweep should not carry megabytes of trace
// per cell.
type RunObs struct {
	Hists    []HistSnapshot       `json:"hists,omitempty"`
	Counters []stats.CounterValue `json:"counters,omitempty"`
	// TraceTotal and TraceDropped summarize the tracer: total events
	// emitted over the measurement window and how many the ring discarded.
	TraceTotal   uint64  `json:"trace_total,omitempty"`
	TraceDropped uint64  `json:"trace_dropped,omitempty"`
	Events       []Event `json:"-"`
	// Shards is the most goroutines the run's cores were split across:
	// engine provenance that depends on the host, so no encoding carries it.
	Shards int `json:"-"`
}

// Hist returns the named histogram snapshot.
func (r *RunObs) Hist(name string) (HistSnapshot, bool) {
	if r == nil {
		return HistSnapshot{}, false
	}
	for _, h := range r.Hists {
		if h.Name == name {
			return h, true
		}
	}
	return HistSnapshot{}, false
}
