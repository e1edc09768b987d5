package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// TraceMeta labels an exported trace.
type TraceMeta struct {
	Workload string
	Design   string
	// Cores is the simulated core count; events with Core in [0,Cores) get
	// per-core process tracks, machine-global events (Core < 0) land on an
	// extra "machine" process.
	Cores int
}

// Per-core thread (track) IDs in the exported trace.
const (
	trackFetch    = 1 // fetch-stall spans, one slice per coalesced stall run
	trackL1iFills = 2 // demand and prefetch fills, one slice per fill latency
	trackPrefetch = 3 // prefetch issues/drops and discontinuity triggers
)

// traceEvent is one Chrome trace_event record. Field order is fixed so the
// export is byte-deterministic (golden-tested).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WritePerfetto exports events as Chrome trace_event JSON loadable in
// Perfetto (ui.perfetto.dev) and chrome://tracing. Each simulated core is a
// process with fetch, L1i-fill, and prefetch tracks; one simulated cycle is
// rendered as one microsecond. Events must be in emission order (as returned
// by Tracer.Events).
func WritePerfetto(w io.Writer, events []Event, meta TraceMeta) error {
	tw := newTraceWriter(w)

	machinePid := meta.Cores
	for c := 0; c < meta.Cores; c++ {
		tw.put(metaEvent(c, 0, "process_name", fmt.Sprintf("core %d", c)))
		tw.put(metaEvent(c, trackFetch, "thread_name", "fetch"))
		tw.put(metaEvent(c, trackL1iFills, "thread_name", "l1i fills"))
		tw.put(metaEvent(c, trackPrefetch, "thread_name", "prefetch"))
	}
	tw.put(metaEvent(machinePid, 0, "process_name", "machine"))
	tw.put(metaEvent(machinePid, 1, "thread_name", "checkpoints"))

	for _, ev := range events {
		pid := int(ev.Core)
		if pid < 0 {
			pid = machinePid
		}
		var te traceEvent
		switch ev.Kind {
		case EvStall:
			te = traceEvent{Name: StallCause(ev.Arg).String(), Ph: "X",
				Ts: ev.Cycle, Dur: ev.Dur, Pid: pid, Tid: trackFetch}
		case EvDemandFill, EvPrefetchFill:
			start := ev.Cycle - min(ev.Dur, ev.Cycle)
			te = traceEvent{Name: ev.Kind.String(), Ph: "X", Ts: start,
				Dur: ev.Dur, Pid: pid, Tid: trackL1iFills,
				Args: map[string]any{"block": fmt.Sprintf("%#x", ev.Arg)}}
		case EvPrefetchIssue, EvPrefetchDrop, EvDiscontinuity:
			te = traceEvent{Name: ev.Kind.String(), Ph: "i", Ts: ev.Cycle,
				Pid: pid, Tid: trackPrefetch, S: "t",
				Args: map[string]any{"block": fmt.Sprintf("%#x", ev.Arg)}}
		case EvCheckpoint:
			te = traceEvent{Name: ev.Kind.String(), Ph: "i", Ts: ev.Cycle,
				Pid: machinePid, Tid: 1, S: "g",
				Args: map[string]any{"seq": ev.Arg}}
		default:
			continue
		}
		tw.put(te)
	}
	return tw.close(fmt.Sprintf("\"clock\":\"1 simulated cycle = 1us\",\"design\":%q,\"workload\":%q",
		meta.Design, meta.Workload))
}

// traceWriter streams one trace_event JSON document: the header, the
// records put, comma-separated, one per line, and a footer. The first
// error is sticky: later puts write nothing and close returns it.
type traceWriter struct {
	bw    *bufio.Writer
	first bool
	err   error
}

func newTraceWriter(w io.Writer) *traceWriter {
	tw := &traceWriter{bw: bufio.NewWriter(w), first: true}
	tw.bw.WriteString("{\"traceEvents\":[\n")
	return tw
}

func (tw *traceWriter) put(ev traceEvent) {
	if tw.err != nil {
		return
	}
	line, err := json.Marshal(ev)
	if err != nil {
		tw.err = err
		return
	}
	if !tw.first {
		tw.bw.WriteString(",\n")
	}
	tw.first = false
	tw.bw.Write(line)
}

// close ends the document with otherData, the members of the footer's
// otherData object, already JSON-encoded, and flushes.
func (tw *traceWriter) close(otherData string) error {
	if tw.err != nil {
		return tw.err
	}
	fmt.Fprintf(tw.bw, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{%s}}\n", otherData)
	return tw.bw.Flush()
}

func metaEvent(pid, tid int, kind, name string) traceEvent {
	return traceEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name}}
}

// WritePerfettoFile exports the trace to a file.
func WritePerfettoFile(path string, events []Event, meta TraceMeta) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: creating trace file: %w", err)
	}
	if err := WritePerfetto(f, events, meta); err != nil {
		f.Close()
		return fmt.Errorf("obs: writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: closing trace file: %w", err)
	}
	return nil
}
