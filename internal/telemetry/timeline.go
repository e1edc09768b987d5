package telemetry

import (
	"fmt"
	"io"
	"sync"
	"time"

	"dnc/internal/obs"
)

// Recorder folds per-cell lifecycle events into per-job timelines. Every
// cell's journey — enqueue → lease/execute → upload → verify → admit, with
// retries, revocations, and reassignments as explicit attempt spans — is
// divided into contiguous phases whose durations telescope exactly to the
// end-to-end latency, the same conservation discipline the cycle engine
// applies to stall attribution. All timestamps come from the server's one
// clock (worker clocks never enter the math, so skew cannot break
// conservation); offsets are microseconds from the recorder's epoch.
//
// A nil *Recorder disables everything: every method is a no-op, so the
// service hot path pays one pointer test when telemetry is off.
type Recorder struct {
	mu   sync.Mutex
	now  func() time.Time
	base time.Time
	jobs map[string]*jobTrace
	// byDigest fans execution events (leases, uploads, verdicts — which are
	// keyed by content digest, not job) out to every job currently waiting
	// on that cell; dedup means one digest can satisfy several jobs.
	byDigest map[string][]*cellTrace
	// onCellDone observes each finalized cell (histogram bridge).
	onCellDone func(CellSnapshot)
}

// jobTrace accumulates one job's timeline.
type jobTrace struct {
	id        string
	traceID   string
	submitted int64
	started   int64
	done      int64
	total     int
	cells     map[string]*cellTrace
	order     []string
}

// cellTrace is one cell's lifecycle within one job. Boundary timestamps
// are µs offsets; -1 means the boundary never happened.
type cellTrace struct {
	job      *jobTrace
	digest   string
	key      string
	enqueued int64
	exec     int64 // first attempt start
	upload   int64 // winning upload arrival
	verified int64
	done     int64
	outcome  string // "", then admitted|cached|dead|failed
	attempts []AttemptSpan
}

// AttemptSpan is one execution attempt: a lease on one worker, remote or
// the server's in-process client. End < 0 while the attempt is still open.
type AttemptSpan struct {
	N       int    `json:"n"`
	Worker  string `json:"worker"`
	Start   int64  `json:"start_us"`
	End     int64  `json:"end_us"`
	Outcome string `json:"outcome"` // admitted|revoked|rejected|failed|open
}

// PhaseSpan is one contiguous lifecycle phase; phases of a cell tile
// [enqueue, done] with no gaps or overlaps.
type PhaseSpan struct {
	Name  string `json:"name"`
	Start int64  `json:"start_us"`
	End   int64  `json:"end_us"`
}

// CellSnapshot is the immutable export of one finalized (or in-flight)
// cell trace.
type CellSnapshot struct {
	Digest   string        `json:"digest"`
	SpanID   string        `json:"span_id"`
	Key      string        `json:"key"`
	Outcome  string        `json:"outcome"`
	Enqueued int64         `json:"enqueued_us"`
	Done     int64         `json:"done_us"`
	Phases   []PhaseSpan   `json:"phases"`
	Attempts []AttemptSpan `json:"attempts"`
}

// E2E returns the end-to-end latency in microseconds.
func (c CellSnapshot) E2E() int64 {
	if c.Done < 0 || c.Enqueued < 0 {
		return 0
	}
	return c.Done - c.Enqueued
}

// PhaseSum returns the telescoped phase total in microseconds; the
// conservation check is PhaseSum() == E2E().
func (c CellSnapshot) PhaseSum() int64 {
	var sum int64
	for _, p := range c.Phases {
		sum += p.End - p.Start
	}
	return sum
}

// Phase returns the duration of a named phase in microseconds (0 if the
// cell never passed through it).
func (c CellSnapshot) Phase(name string) int64 {
	for _, p := range c.Phases {
		if p.Name == name {
			return p.End - p.Start
		}
	}
	return 0
}

// JobSnapshot is the immutable export of one job timeline.
type JobSnapshot struct {
	JobID     string         `json:"job_id"`
	TraceID   string         `json:"trace_id"`
	Submitted int64          `json:"submitted_us"`
	Started   int64          `json:"started_us"`
	Done      int64          `json:"done_us"`
	Total     int            `json:"total_cells"`
	Cells     []CellSnapshot `json:"cells"`
}

// NewRecorder returns a recorder using the given clock (nil for wall
// clock). The clock seam keeps timeline tests deterministic.
func NewRecorder(now func() time.Time) *Recorder {
	if now == nil {
		now = time.Now
	}
	return &Recorder{
		now:      now,
		base:     now(),
		jobs:     make(map[string]*jobTrace),
		byDigest: make(map[string][]*cellTrace),
	}
}

// OnCellDone registers a callback invoked (under no lock) with each
// finalized cell — the bridge feeding phase durations into histograms.
// Must be set before concurrent use.
func (r *Recorder) OnCellDone(fn func(CellSnapshot)) {
	if r != nil {
		r.onCellDone = fn
	}
}

func (r *Recorder) ts() int64 {
	return int64(r.now().Sub(r.base) / time.Microsecond)
}

// JobSubmitted opens a job timeline and returns its trace ID.
func (r *Recorder) JobSubmitted(jobID string, totalCells int) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[jobID]
	if !ok {
		j = &jobTrace{id: jobID, traceID: TraceID(jobID), submitted: r.ts(),
			started: -1, done: -1, cells: make(map[string]*cellTrace)}
		r.jobs[jobID] = j
	}
	j.total = totalCells
	return j.traceID
}

// JobStarted marks the job leaving the queue.
func (r *Recorder) JobStarted(jobID string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if j := r.jobs[jobID]; j != nil && j.started < 0 {
		j.started = r.ts()
	}
}

// JobDone marks the job terminal.
func (r *Recorder) JobDone(jobID string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if j := r.jobs[jobID]; j != nil && j.done < 0 {
		j.done = r.ts()
	}
}

// cell fetches or creates the per-job cell trace. Caller holds r.mu.
func (r *Recorder) cell(jobID, digest, key string) *cellTrace {
	j := r.jobs[jobID]
	if j == nil {
		// A cell event for an untracked job (e.g. recorder enabled after
		// recovery re-queued the job) opens the job implicitly so no event
		// is dropped on the floor.
		j = &jobTrace{id: jobID, traceID: TraceID(jobID), submitted: r.ts(),
			started: -1, done: -1, cells: make(map[string]*cellTrace)}
		r.jobs[jobID] = j
	}
	c, ok := j.cells[digest]
	if !ok {
		c = &cellTrace{job: j, digest: digest, key: key,
			enqueued: -1, exec: -1, upload: -1, verified: -1, done: -1}
		j.cells[digest] = c
		j.order = append(j.order, digest)
	}
	return c
}

// CellEnqueued records a cell entering the run queue and subscribes the
// job to that digest's execution events.
func (r *Recorder) CellEnqueued(jobID, digest, key string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.cell(jobID, digest, key)
	if c.enqueued < 0 {
		c.enqueued = r.ts()
	}
	for _, sub := range r.byDigest[digest] {
		if sub == c {
			return
		}
	}
	r.byDigest[digest] = append(r.byDigest[digest], c)
}

// CellCached records a cache-hit cell: its whole lifecycle is one instant.
func (r *Recorder) CellCached(jobID, digest, key string) {
	r.finishInstant(jobID, digest, key, "cached")
}

// CellDead records a dead-lettered cell short-circuited before execution.
func (r *Recorder) CellDead(jobID, digest, key string) {
	r.finishInstant(jobID, digest, key, "dead")
}

func (r *Recorder) finishInstant(jobID, digest, key, outcome string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	c := r.cell(jobID, digest, key)
	t := r.ts()
	if c.enqueued < 0 {
		c.enqueued = t
	}
	c.done = t
	c.outcome = outcome
	snap := r.snapshotCellLocked(c)
	r.mu.Unlock()
	if r.onCellDone != nil {
		r.onCellDone(snap)
	}
}

// ExecStart opens an execution attempt on a worker for every job waiting on
// the digest.
func (r *Recorder) ExecStart(digest, worker string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.ts()
	for _, c := range r.byDigest[digest] {
		if c.exec < 0 {
			c.exec = t
		}
		c.attempts = append(c.attempts, AttemptSpan{
			N: len(c.attempts) + 1, Worker: worker, Start: t, End: -1, Outcome: "open"})
	}
}

// ExecEnd closes the open attempt on the given worker with an outcome
// (revoked, rejected, failed, admitted). Reassigned cells keep the closed
// attempt and get a new one at the next ExecStart.
func (r *Recorder) ExecEnd(digest, worker, outcome string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.ts()
	for _, c := range r.byDigest[digest] {
		for i := len(c.attempts) - 1; i >= 0; i-- {
			a := &c.attempts[i]
			if a.Worker == worker && a.End < 0 {
				a.End = t
				a.Outcome = outcome
				break
			}
		}
	}
}

// Upload records the winning result arrival — the execute→verify phase
// boundary.
func (r *Recorder) Upload(digest string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.ts()
	for _, c := range r.byDigest[digest] {
		if c.upload < 0 {
			c.upload = t
		}
	}
}

// Verified records the verification verdict boundary.
func (r *Recorder) Verified(digest string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.ts()
	for _, c := range r.byDigest[digest] {
		if c.verified < 0 {
			c.verified = t
		}
	}
}

// CellDone finalizes one job's cell with a terminal outcome (admitted or
// failed), computes its phase spans, unsubscribes it from execution
// events, and feeds the OnCellDone bridge.
func (r *Recorder) CellDone(jobID, digest, outcome string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	j := r.jobs[jobID]
	if j == nil {
		r.mu.Unlock()
		return
	}
	c := j.cells[digest]
	if c == nil || c.done >= 0 {
		r.mu.Unlock()
		return
	}
	c.done = r.ts()
	c.outcome = outcome
	// Close any attempt left open: a reported failure or a job timeout can
	// end the cell before the attempt's ExecEnd lands.
	for i := len(c.attempts) - 1; i >= 0; i-- {
		if c.attempts[i].End < 0 {
			c.attempts[i].End = c.done
			c.attempts[i].Outcome = outcome
		}
	}
	// Unsubscribe from execution fan-out.
	subs := r.byDigest[digest]
	for i, sub := range subs {
		if sub == c {
			r.byDigest[digest] = append(subs[:i], subs[i+1:]...)
			break
		}
	}
	if len(r.byDigest[digest]) == 0 {
		delete(r.byDigest, digest)
	}
	snap := r.snapshotCellLocked(c)
	r.mu.Unlock()
	if r.onCellDone != nil {
		r.onCellDone(snap)
	}
}

// phases tiles [enqueued, done] with contiguous spans at each boundary the
// cell actually passed: the telescoping sum equals end-to-end latency by
// construction (conservation is structural, not checked after the fact).
func (c *cellTrace) phases() []PhaseSpan {
	if c.enqueued < 0 || c.done < 0 {
		return nil
	}
	if c.outcome == "cached" || c.outcome == "dead" {
		return []PhaseSpan{{Name: c.outcome, Start: c.enqueued, End: c.done}}
	}
	var out []PhaseSpan
	cur := c.enqueued
	add := func(name string, end int64) {
		if end < cur { // clock seams may be coarse; clamp, never overlap
			end = cur
		}
		out = append(out, PhaseSpan{Name: name, Start: cur, End: end})
		cur = end
	}
	if c.exec >= 0 {
		add("queue-wait", c.exec)
	}
	if c.upload >= 0 {
		add("execute", c.upload)
	}
	if c.verified >= 0 {
		add("verify", c.verified)
	}
	add("admit", c.done)
	return out
}

func (r *Recorder) snapshotCellLocked(c *cellTrace) CellSnapshot {
	return CellSnapshot{
		Digest:   c.digest,
		SpanID:   SpanID(c.digest),
		Key:      c.key,
		Outcome:  c.outcome,
		Enqueued: c.enqueued,
		Done:     c.done,
		Phases:   c.phases(),
		Attempts: append([]AttemptSpan(nil), c.attempts...),
	}
}

// Job returns a deep snapshot of one job's timeline, or false if unknown.
func (r *Recorder) Job(jobID string) (JobSnapshot, bool) {
	if r == nil {
		return JobSnapshot{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	j := r.jobs[jobID]
	if j == nil {
		return JobSnapshot{}, false
	}
	snap := JobSnapshot{JobID: j.id, TraceID: j.traceID, Submitted: j.submitted,
		Started: j.started, Done: j.done, Total: j.total}
	for _, d := range j.order {
		snap.Cells = append(snap.Cells, r.snapshotCellLocked(j.cells[d]))
	}
	return snap, true
}

// WriteJobPerfetto exports one job's timeline as Chrome trace_event JSON
// via the obs span exporter: one Perfetto process per cell with a phase
// lane and an attempt lane, plus a job-lifecycle track. Returns false if
// the job is unknown.
func (r *Recorder) WriteJobPerfetto(w io.Writer, jobID string) (bool, error) {
	snap, ok := r.Job(jobID)
	if !ok {
		return false, nil
	}
	var spans []obs.Span
	jobEnd := snap.Done
	if jobEnd < 0 {
		jobEnd = snap.Submitted
	}
	spans = append(spans, obs.Span{
		Track: "job " + snap.JobID, Lane: "lifecycle", Name: "job",
		Ts: uint64(snap.Submitted), Dur: uint64(jobEnd - snap.Submitted),
		Args: map[string]any{"trace_id": snap.TraceID, "cells": snap.Total},
	})
	for _, c := range snap.Cells {
		track := "cell " + c.SpanID
		for _, p := range c.Phases {
			spans = append(spans, obs.Span{
				Track: track, Lane: "phases", Name: p.Name,
				Ts: uint64(p.Start), Dur: uint64(p.End - p.Start),
				Args: map[string]any{"trace_id": snap.TraceID, "span_id": c.SpanID,
					"key": c.Key, "outcome": c.Outcome},
			})
		}
		for _, a := range c.Attempts {
			end := a.End
			if end < a.Start {
				end = a.Start
			}
			spans = append(spans, obs.Span{
				Track: track, Lane: "attempts",
				Name: fmt.Sprintf("attempt %d: %s", a.N, a.Outcome),
				Ts:   uint64(a.Start), Dur: uint64(end - a.Start),
				Args: map[string]any{"worker": a.Worker},
			})
		}
	}
	err := obs.WriteSpanTrace(w, spans, obs.SpanTraceMeta{
		Name:  snap.JobID,
		Clock: "server wall clock, us since telemetry epoch",
	})
	return true, err
}
