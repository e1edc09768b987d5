package obs

import "dnc/internal/stats"

// Config enables the observability layer for one simulation run.
type Config struct {
	// SampleEvery is the occupancy-gauge sampling cadence in cycles
	// (0 = DefaultSampleEvery).
	SampleEvery uint64
	// TraceEvents bounds the event tracer's ring buffer; 0 disables
	// tracing while keeping histograms and gauges on.
	TraceEvents int
	// Series additionally retains the sampled gauges as time-series
	// (IPC-over-time plus the occupancy gauges), folded into
	// RunObs.Series. Off by default: a series costs ~16 bytes per sample
	// point in memory and rides the JSON wire form of the result, so only
	// store-writing runs (dncbench -store-out) should pay for it.
	Series bool
}

// DefaultSampleEvery is the gauge sampling cadence when Config.SampleEvery
// is zero: fine enough to resolve per-window occupancy shifts, coarse enough
// to stay invisible next to the cycle loop.
const DefaultSampleEvery = 256

// Registry is a named collection of histograms plus ad-hoc counters,
// snapshotted in registration order at the end of a run. It is not safe for
// concurrent use; the simulator's tick loop is single-threaded per run.
type Registry struct {
	order    []string
	hists    map[string]*Histogram
	counters *stats.Set

	seriesOrder []string
	series      map[string]*Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hists:    make(map[string]*Histogram),
		counters: stats.NewSet(),
		series:   make(map[string]*Series),
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

// Series returns the named time-series, creating it on first use.
func (r *Registry) Series(name string) *Series {
	if s, ok := r.series[name]; ok {
		return s
	}
	s := NewSeries(name)
	r.series[name] = s
	r.seriesOrder = append(r.seriesOrder, name)
	return s
}

// Reset zeroes every histogram, counter, and series (warm-up/measurement
// boundary).
func (r *Registry) Reset() {
	for _, n := range r.order {
		r.hists[n].Reset()
	}
	for _, n := range r.seriesOrder {
		r.series[n].Reset()
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

// SeriesSnapshots captures every registered time-series in registration
// order (nil when none are registered, so RunObs JSON stays unchanged for
// runs without series capture).
func (r *Registry) SeriesSnapshots() []SeriesSnapshot {
	if len(r.seriesOrder) == 0 {
		return nil
	}
	out := make([]SeriesSnapshot, 0, len(r.seriesOrder))
	for _, n := range r.seriesOrder {
		out = append(out, r.series[n].Snapshot())
	}
	return out
}

// RunObs is a run's observability snapshot, folded into sim.Result. Trace
// events are kept in memory for in-process export (dncsim -trace-out) but
// excluded from JSON: a journaled sweep should not carry megabytes of trace
// per cell.
type RunObs struct {
	Hists    []HistSnapshot       `json:"hists,omitempty"`
	Counters []stats.CounterValue `json:"counters,omitempty"`
	// Series holds the sampled gauge time-series when Config.Series was
	// set (IPC-over-time and per-sample occupancy means).
	Series []SeriesSnapshot `json:"series,omitempty"`
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
