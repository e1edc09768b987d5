// Package obs is the simulator's observability layer: low-overhead
// fixed-bucket histograms and counters collected into a registry
// (internal/obs.Registry), a bounded ring-buffer event tracer, and a
// Perfetto/Chrome trace_event JSON exporter. The simulated frontend and the
// simulator itself are profiled with the same substrate: stall attribution
// and prefetch timeliness for the machine model, sweep progress and journal
// lag for the harness.
//
// Everything here is optional and nil-safe: a component holds a possibly-nil
// *Tracer or *Histogram and pays one pointer test per event when
// observability is off (see the cycle-loop overhead benchmark in
// internal/sim/bench_test.go).
package obs

// StallCause is the top-down frontend stall taxonomy: every zero-delivery
// fetch cycle is charged to exactly one cause. The attribution is
// conservative by construction — internal/core charges one counter per idle
// cycle and sim.Audit checks that the causes plus delivering cycles sum to
// the window's total cycles.
type StallCause uint8

const (
	// StallNone marks a delivering (non-stalled) cycle.
	StallNone StallCause = iota
	// StallICache: fetch is waiting on an outstanding L1i demand miss.
	StallICache
	// StallFTQ: the design's fetch target queue has not delivered the
	// block (empty-FTQ stall of fetch-directed frontends).
	StallFTQ
	// StallBTB: redirect bubble from a BTB miss (unknown branch/target).
	StallBTB
	// StallMispred: redirect bubble from a wrong-path squash (direction or
	// target misprediction resolved in the backend).
	StallMispred
	// StallBackend: the ROB is full; fetch is backpressured.
	StallBackend
	// StallStartup: pipeline-fill cycles before the first delivery.
	StallStartup

	// NumStallCauses bounds the taxonomy (array sizing).
	NumStallCauses
)

var stallNames = [NumStallCauses]string{
	"delivering", "icache-miss", "ftq-empty", "btb-miss", "wrong-path-squash",
	"backend-backpressure", "startup",
}

// String names the cause for reports and trace tracks.
func (c StallCause) String() string {
	if int(c) < len(stallNames) {
		return stallNames[c]
	}
	return "unknown"
}

// EventKind classifies a trace event.
type EventKind uint8

const (
	// EvStall is a coalesced run of fetch-stall cycles; Arg is the
	// StallCause, Dur the run length.
	EvStall EventKind = iota
	// EvDemandFill is an L1i fill of a demand miss; Arg is the block ID,
	// Dur the miss latency.
	EvDemandFill
	// EvPrefetchFill is an L1i (or prefetch-buffer) fill of a prefetched
	// block; Arg is the block ID, Dur the issue-to-fill latency.
	EvPrefetchFill
	// EvPrefetchIssue marks a prefetch leaving for the lower hierarchy;
	// Arg is the block ID.
	EvPrefetchIssue
	// EvPrefetchDrop marks a prefetch rejected at issue for lack of an
	// MSHR; Arg is the block ID.
	EvPrefetchDrop
	// EvDiscontinuity marks a discontinuity-replay trigger chasing a
	// non-sequential target; Arg is the target block ID.
	EvDiscontinuity
	// EvCheckpoint marks a full-machine snapshot; Arg is the snapshot
	// sequence number within the run.
	EvCheckpoint

	numEventKinds
)

var eventNames = [numEventKinds]string{
	"stall", "demand fill", "prefetch fill", "prefetch issue",
	"prefetch drop", "discontinuity", "checkpoint",
}

// String names the kind for exports.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return "unknown"
}

// Event is one trace record. Cycle is the event's start (for spans) or
// instant; Dur is the span length in cycles (0 for instants); Core is the
// emitting tile (-1 for machine-global events); Arg is kind-specific.
type Event struct {
	Cycle uint64
	Dur   uint64
	Arg   uint64
	Core  int16
	Kind  EventKind
}

// Tracer is a bounded ring buffer of events. When the buffer is full the
// oldest events are overwritten, so a trace always holds the tail of the
// run. All methods are safe on a nil receiver — a nil *Tracer is the
// disabled tracer, and Emit's nil test is the whole fast path.
type Tracer struct {
	buf   []Event
	next  int
	total uint64
}

// NewTracer returns a tracer holding up to capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		return nil
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records one event. It is a no-op on a nil tracer.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.total++
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
		return
	}
	t.buf[t.next] = ev
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
}

// SetDur rewrites the Dur of the event with sequence number seq (the value
// Total had just before it was emitted) if the ring still holds it.
func (t *Tracer) SetDur(seq, dur uint64) {
	if t == nil || seq >= t.total || t.total-seq > uint64(len(t.buf)) {
		return
	}
	t.buf[seq%uint64(cap(t.buf))].Dur = dur
}

// Total returns how many events were emitted over the tracer's lifetime,
// including overwritten ones.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Dropped returns how many events were overwritten by newer ones.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.total - uint64(len(t.buf))
}

// Events returns the buffered events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil || len(t.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Reset discards buffered events and the lifetime counters (used at the
// warm-up/measurement window boundary, so the exported trace covers the
// measurement window only).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.buf = t.buf[:0]
	t.next = 0
	t.total = 0
}
