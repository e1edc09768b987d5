package obs

import (
	"fmt"
	"io"
)

// Span is one wall-clock slice on a named track, the service-plane analogue
// of the cycle-domain Event: Ts/Dur are microseconds from an arbitrary
// epoch, Track groups spans onto one row (one process in the Perfetto UI),
// Lane subdivides a track (one thread row). Args carry free-form
// annotations (trace IDs, digests, worker names).
type Span struct {
	Track string // process row, e.g. a cell key or worker ID
	Lane  string // thread row within the track, e.g. "attempt 1"
	Name  string // slice label, e.g. "execute" or "queue-wait"
	Ts    uint64 // start, microseconds from the trace epoch
	Dur   uint64 // duration in microseconds
	Args  map[string]any
}

// SpanTraceMeta labels an exported span trace.
type SpanTraceMeta struct {
	Name  string // trace title, e.g. the job ID
	Clock string // human description of the time base
}

// WriteSpanTrace exports spans as Chrome trace_event JSON loadable in
// Perfetto, reusing the cycle-trace exporter's record shape. Tracks and
// lanes get pid/tid numbers in order of first appearance, so the output is
// byte-deterministic for a fixed span order.
func WriteSpanTrace(w io.Writer, spans []Span, meta SpanTraceMeta) error {
	tw := newTraceWriter(w)

	type laneKey struct{ track, lane string }
	pids := map[string]int{}
	tids := map[laneKey]int{}
	nextTid := map[string]int{}
	for _, s := range spans {
		pid, ok := pids[s.Track]
		if !ok {
			pid = len(pids)
			pids[s.Track] = pid
			tw.put(metaEvent(pid, 0, "process_name", s.Track))
		}
		lk := laneKey{s.Track, s.Lane}
		tid, ok := tids[lk]
		if !ok {
			nextTid[s.Track]++
			tid = nextTid[s.Track]
			tids[lk] = tid
			tw.put(metaEvent(pid, tid, "thread_name", s.Lane))
		}
		ev := traceEvent{Name: s.Name, Ph: "X", Ts: s.Ts, Dur: s.Dur,
			Pid: pid, Tid: tid, Args: s.Args}
		if s.Dur == 0 {
			// Zero-width slices render as instants so they stay visible.
			ev.Ph, ev.S = "i", "t"
			ev.Dur = 0
		}
		tw.put(ev)
	}
	return tw.close(fmt.Sprintf("\"clock\":%q,\"name\":%q", meta.Clock, meta.Name))
}
