package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"sync"
	"time"

	"dnc/internal/service/workerproto"
	"dnc/internal/sim"
	"dnc/internal/telemetry"
)

// The distributed worker plane. The dispatcher is the server side of the
// work API: a lease table that hands pending cells to registered remote
// workers in batches, renews leases on heartbeats, and reassigns the cells
// of workers that die (missed heartbeats) or freeze (heartbeats continue,
// progress doesn't — each lease carries a progress budget, the same idea as
// the simulator's livelock watchdog). Execution is at-least-once; the
// admission path in Server.completeCell verifies every upload's content
// address and the first-insert-wins cache makes duplicates provably
// harmless, so reassignment never risks double-admitting a cell.
//
// When no live workers are registered the dispatcher reports itself
// inactive and cells run on the PR 6 in-process pool instead — an existing
// single-process deployment behaves exactly as before. If every worker
// disappears while cells are waiting, the waiters are released with
// errNoWorkers and fall back to local execution rather than stalling.

// Lease-plane defaults (overridable via Config).
const (
	// DefaultLeaseTTL is the heartbeat window: a worker silent this long
	// forfeits its leases.
	DefaultLeaseTTL = 15 * time.Second
	// DefaultLeaseMaxAge is the per-lease progress budget: a cell leased
	// this long without completing is revoked even if its worker is still
	// heartbeating (the frozen-worker case).
	DefaultLeaseMaxAge = 10 * time.Minute
	// DefaultLeaseBatchMax caps cells per lease request.
	DefaultLeaseBatchMax = 16
	// leaseExpirySweep is the cadence of the background expiry check. The
	// check reads the injectable clock, so fake-clock tests stay
	// deterministic: real time only decides how often we look.
	leaseExpirySweep = 100 * time.Millisecond
)

// errNoWorkers releases a waiting cell back to local execution when the
// last live worker disappears.
var errNoWorkers = errors.New("service: no live remote workers")

// remoteOutcome is what a waiter receives: a result admitted from a worker
// upload, or the remote execution's error.
type remoteOutcome struct {
	r   sim.Result
	err error
}

// remoteCell is one cell on the remote plane: pending (awaiting a lease) or
// leased (awaiting completion). Several concurrent jobs can contain the
// same cell; each gets its own waiter channel and one execution feeds all.
type remoteCell struct {
	digest  string
	spec    workerproto.CellSpec
	waiters []chan remoteOutcome
	leased  bool // held by a worker right now (not in pending)
	// traceID is the submitting job's trace (first submitter wins when dedup
	// funnels several jobs onto one cell); it rides on every lease so worker
	// attempts stitch into the server timeline.
	traceID string
}

// workerState is one live registered worker.
type workerState struct {
	id       string
	name     string
	capacity int
	expiry   time.Time // lastBeat + TTL; any API call renews it
	leases   map[string]*lease
}

// lease is one cell granted to one worker.
type lease struct {
	cell      *remoteCell
	worker    *workerState
	grantedAt time.Time // fixed at grant: the progress budget anchor
}

// dispatchStats is the worker-plane accounting surfaced on /v1/healthz.
type dispatchStats struct {
	// WorkersRegistered counts registrations ever (this process).
	WorkersRegistered uint64 `json:"workers_registered"`
	// WorkersLive is the current live (heartbeating) worker count; zero
	// means degraded mode — cells execute in-process.
	WorkersLive int `json:"workers_live"`
	// WorkersExpired counts workers that missed their heartbeat window.
	WorkersExpired uint64 `json:"workers_expired"`
	// LeaseDepth is cells currently leased to workers.
	LeaseDepth int `json:"lease_depth"`
	// RemotePending is cells queued for the next lease request.
	RemotePending int `json:"remote_pending"`
	// Reassigned counts leases revoked and returned to the queue (dead or
	// frozen workers).
	Reassigned uint64 `json:"reassigned"`
	// RemoteAdmitted counts fresh results admitted from worker uploads;
	// RemoteDuplicates counts bit-identical redeliveries acknowledged
	// idempotently; RemoteRejected counts uploads refused by admission
	// verification (digest mismatch, unknown cell, result mismatch).
	RemoteAdmitted   uint64 `json:"remote_admitted"`
	RemoteDuplicates uint64 `json:"remote_duplicates"`
	RemoteRejected   uint64 `json:"remote_rejected"`
}

// dispatcher owns the lease table. All methods are safe for concurrent use.
type dispatcher struct {
	mu  sync.Mutex
	now func() time.Time

	ttl      time.Duration
	maxAge   time.Duration
	batchMax int

	seq     int
	workers map[string]*workerState // live only
	byCell  map[string]*remoteCell  // every outstanding cell, pending or leased
	pending []*remoteCell           // FIFO; reassigned cells go to the front

	// parked is the lease calls waiting for work, longest-waiting first; a
	// cell that becomes pending is handed to the head call at once, so
	// parked and pending are never both non-empty, idle workers take turns,
	// and one new cell wakes one call.
	parked []*parkedLease

	st dispatchStats

	// rec and log are set by the owning Server after construction (nil rec =
	// telemetry disabled; both are never reassigned once the server starts).
	rec *telemetry.Recorder
	log *slog.Logger
}

func newDispatcher(now func() time.Time, ttl, maxAge time.Duration, batchMax int) *dispatcher {
	if now == nil {
		now = time.Now
	}
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	if maxAge <= 0 {
		maxAge = DefaultLeaseMaxAge
	}
	if batchMax <= 0 {
		batchMax = DefaultLeaseBatchMax
	}
	return &dispatcher{
		now:      now,
		ttl:      ttl,
		maxAge:   maxAge,
		batchMax: batchMax,
		workers:  make(map[string]*workerState),
		byCell:   make(map[string]*remoteCell),
		log:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// register admits a worker and issues its identity and timing contract.
func (d *dispatcher) register(name string, capacity int) workerproto.RegisterResponse {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq++
	d.st.WorkersRegistered++
	w := &workerState{
		id:       fmt.Sprintf("w%06d", d.seq),
		name:     name,
		capacity: capacity,
		expiry:   d.now().Add(d.ttl),
		leases:   make(map[string]*lease),
	}
	d.workers[w.id] = w
	d.log.Info("worker registered", "worker", w.id, "name", name, "capacity", capacity)
	return workerproto.RegisterResponse{
		WorkerID:      w.id,
		LeaseTTLMS:    d.ttl.Milliseconds(),
		HeartbeatMS:   d.heartbeatEvery().Milliseconds(),
		LeaseBatchMax: d.batchMax,
	}
}

// errUnknownWorker maps to 404: the worker's registration expired (or never
// existed) and it must register again before leasing.
var errUnknownWorker = errors.New("service: unknown or expired worker")

// touch renews a worker's heartbeat expiry; every work-API call counts as
// liveness.
func (d *dispatcher) touch(w *workerState) { w.expiry = d.now().Add(d.ttl) }

// heartbeatEvery is the cadence dictated to workers at registration, and so
// also the longest a lease call may stay parked: three beats fit in a TTL.
func (d *dispatcher) heartbeatEvery() time.Duration { return d.ttl / 3 }

// parkedLease is one lease call that found nothing pending.
type parkedLease struct {
	w        *workerState
	max      int
	deadline time.Time
	// done is closed when the call comes off dispatcher.parked with its
	// answer in leases: cells handed to it, or none at its deadline.
	done   chan struct{}
	leases []workerproto.Lease
}

// lease grants up to max pending cells to the worker. With nothing pending
// the call parks — an idle worker costs the server a blocked goroutine, not
// a request per poll interval — until a cell becomes pending and it is this
// call's turn, ctx ends (the server is draining or the client went away;
// neither is granted anything), or one heartbeat period passes, which
// returns an empty grant, or errUnknownWorker if the worker was reaped
// meanwhile. The worker is renewed on entry and on return and by nothing in
// between: a call whose client vanished silently must not keep its worker
// alive past one more TTL.
func (d *dispatcher) lease(ctx context.Context, workerID string, max int) ([]workerproto.Lease, error) {
	if max <= 0 || max > d.batchMax {
		max = d.batchMax
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	w, ok := d.workers[workerID]
	if !ok {
		return nil, errUnknownWorker
	}
	if ctx.Err() != nil {
		return nil, nil
	}
	d.touch(w)
	if len(d.pending) > 0 {
		return d.grantLocked(w, max), nil
	}
	p := &parkedLease{w: w, max: max, deadline: d.now().Add(d.heartbeatEvery()), done: make(chan struct{})}
	d.parked = append(d.parked, p)
	d.mu.Unlock()
	select {
	case <-p.done:
	case <-ctx.Done():
	}
	d.mu.Lock()
	if i := slices.Index(d.parked, p); i >= 0 {
		d.parked = slices.Delete(d.parked, i, i+1)
	}
	if ctx.Err() != nil {
		// Cells handed over as the caller left go back to the head of the
		// queue (and to the next parked call) instead of waiting out a TTL.
		for i := len(p.leases) - 1; i >= 0; i-- {
			if l, held := w.leases[p.leases[i].Digest]; held {
				d.revokeLocked(l)
			}
		}
		return nil, nil
	}
	if d.workers[workerID] != w {
		return nil, errUnknownWorker
	}
	d.touch(w)
	return p.leases, nil
}

// offerLocked hands pending cells to parked lease calls, longest-waiting
// first. Every path that grows pending calls it.
func (d *dispatcher) offerLocked() {
	for len(d.pending) > 0 && len(d.parked) > 0 {
		p := d.unparkLocked()
		p.leases = d.grantLocked(p.w, p.max)
	}
}

// unparkLocked takes the longest-waiting call off the list and releases it
// with whatever answer the caller then gives it.
func (d *dispatcher) unparkLocked() *parkedLease {
	p := d.parked[0]
	d.parked[0] = nil
	d.parked = d.parked[1:]
	close(p.done)
	return p
}

// grantLocked moves up to max cells from the head of pending to the worker.
func (d *dispatcher) grantLocked(w *workerState, max int) []workerproto.Lease {
	var out []workerproto.Lease
	for len(out) < max && len(d.pending) > 0 {
		c := d.pending[0]
		d.pending[0] = nil // the backing array must not pin a granted cell
		d.pending = d.pending[1:]
		c.leased = true
		w.leases[c.digest] = &lease{cell: c, worker: w, grantedAt: d.now()}
		l := workerproto.Lease{Digest: c.digest, Key: c.spec.Key(), Spec: c.spec}
		if c.traceID != "" {
			l.TraceID = c.traceID
			l.SpanID = telemetry.SpanID(c.digest)
		}
		out = append(out, l)
		d.rec.ExecStart(c.digest, w.id)
	}
	if len(out) > 0 {
		d.log.Debug("leases granted", "worker", w.id, "cells", len(out))
	}
	return out
}

// heartbeat renews the worker and all its leases, revoking any lease past
// the progress budget (the frozen-worker watchdog: beats arrive, results
// don't). Revoked digests are reported so the worker abandons them.
func (d *dispatcher) heartbeat(workerID string, active []string) ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	w, ok := d.workers[workerID]
	if !ok {
		return nil, errUnknownWorker
	}
	d.touch(w)
	now := d.now()
	seen := make(map[string]bool)
	var revoked []string
	for digest, l := range w.leases {
		if now.Sub(l.grantedAt) > d.maxAge {
			d.revokeLocked(l)
			seen[digest] = true
			revoked = append(revoked, digest)
		}
	}
	// Digests the worker claims but the server no longer leases to it
	// (already revoked and reassigned) are re-reported so the worker can
	// cancel the stale execution. A cell that has left the table is not: a
	// worker lists a cell until its upload is acknowledged, so a beat that
	// crosses the acknowledgement claims a cell this very worker completed.
	for _, digest := range active {
		if _, held := w.leases[digest]; !held && !seen[digest] && d.byCell[digest] != nil {
			seen[digest] = true
			revoked = append(revoked, digest)
		}
	}
	return revoked, nil
}

// revokeLocked returns a leased cell to the front of the pending queue (it
// has already waited its turn once).
func (d *dispatcher) revokeLocked(l *lease) {
	delete(l.worker.leases, l.cell.digest)
	if _, live := d.byCell[l.cell.digest]; !live {
		return // completed or abandoned in the meantime
	}
	l.cell.leased = false
	d.pending = slices.Insert(d.pending, 0, l.cell)
	d.st.Reassigned++
	d.rec.ExecEnd(l.cell.digest, l.worker.id, "revoked")
	d.log.Warn("lease revoked", "span", telemetry.SpanID(l.cell.digest), "worker", l.worker.id,
		"held", d.now().Sub(l.grantedAt).String())
	d.offerLocked()
}

// expireLocked reaps workers whose heartbeat window lapsed, reassigning
// their leases; if the last live worker goes, waiting cells are released to
// local execution. Before that it answers, empty, the parked lease calls
// whose heartbeat period is up: the expiry sweep, not a timer per call, is
// what ends a park on its bound — under a fake clock too. (Calls park in
// deadline order, and a worker's TTL outlasts its call's park, so a reaped
// worker's call has always been answered first.)
func (d *dispatcher) expireLocked() {
	now := d.now()
	for len(d.parked) > 0 && !now.Before(d.parked[0].deadline) {
		d.unparkLocked()
	}
	for id, w := range d.workers {
		if now.After(w.expiry) {
			d.log.Warn("worker expired", "worker", id, "name", w.name, "leases", len(w.leases))
			for _, l := range w.leases {
				d.revokeLocked(l)
			}
			delete(d.workers, id)
			d.st.WorkersExpired++
		}
	}
	if len(d.workers) == 0 {
		d.releaseAllLocked(errNoWorkers)
	}
}

// expire is the background sweep entry point.
func (d *dispatcher) expire() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
}

// releaseAllLocked hands every outstanding cell back to its waiters with
// err (used when the worker plane empties: waiters fall back to the
// in-process pool).
func (d *dispatcher) releaseAllLocked(err error) {
	for digest, c := range d.byCell {
		for _, ch := range c.waiters {
			ch <- remoteOutcome{err: err}
		}
		delete(d.byCell, digest)
	}
	d.pending = nil
}

// active reports whether at least one live worker is registered (after
// reaping); inactive means degraded mode — run cells in-process.
func (d *dispatcher) active() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	return len(d.workers) > 0
}

// enqueue places a cell on the remote plane and returns the channel its
// outcome arrives on plus a cancel function (the waiter's job was cancelled
// or timed out; the cell is dropped once its last waiter leaves and it is
// not currently leased).
func (d *dispatcher) enqueue(spec workerproto.CellSpec, traceID string) (<-chan remoteOutcome, func()) {
	digest := spec.Digest()
	ch := make(chan remoteOutcome, 1)
	d.mu.Lock()
	c, ok := d.byCell[digest]
	if !ok {
		c = &remoteCell{digest: digest, spec: spec, traceID: traceID}
		d.byCell[digest] = c
		d.pending = append(d.pending, c)
		d.offerLocked()
	}
	c.waiters = append(c.waiters, ch)
	d.mu.Unlock()

	cancel := func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		c, ok := d.byCell[digest]
		if !ok {
			return
		}
		for i, w := range c.waiters {
			if w == ch {
				c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
				break
			}
		}
		if len(c.waiters) == 0 && !c.leased {
			// Nobody wants it and no worker is running it: drop it from the
			// queue so it cannot be leased pointlessly.
			delete(d.byCell, digest)
			for i, p := range d.pending {
				if p == c {
					d.pending = append(d.pending[:i], d.pending[i+1:]...)
					break
				}
			}
		}
	}
	return ch, cancel
}

// deliver resolves an outstanding cell — a verified result admitted from a
// worker upload (err nil) or a reported remote failure — waking every
// waiter. It reports whether the cell was outstanding.
func (d *dispatcher) deliver(digest string, out remoteOutcome) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.byCell[digest]
	if !ok {
		return false
	}
	delete(d.byCell, digest)
	for i, p := range d.pending {
		if p == c {
			d.pending = append(d.pending[:i], d.pending[i+1:]...)
			break
		}
	}
	// Clear any live lease for the cell (the completing worker's own lease,
	// or a reassigned one some other worker still holds — its eventual
	// upload will be acknowledged as a duplicate).
	for _, w := range d.workers {
		delete(w.leases, digest)
	}
	for _, ch := range c.waiters {
		ch <- out
	}
	return true
}

// outstanding reports whether the cell is known to the remote plane
// (pending or leased) — the admission gate for fresh uploads.
func (d *dispatcher) outstanding(digest string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.byCell[digest]
	return ok
}

// stats snapshots the worker-plane accounting.
func (d *dispatcher) stats() dispatchStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.st
	st.WorkersLive = len(d.workers)
	st.RemotePending = len(d.pending)
	for _, w := range d.workers {
		st.LeaseDepth += len(w.leases)
	}
	return st
}

// countAdmitted / countDuplicate / countRejected fold admission outcomes
// into the stats (called by the complete handler).
func (d *dispatcher) countAdmitted() {
	d.mu.Lock()
	d.st.RemoteAdmitted++
	d.mu.Unlock()
}

func (d *dispatcher) countDuplicate() {
	d.mu.Lock()
	d.st.RemoteDuplicates++
	d.mu.Unlock()
}

func (d *dispatcher) countRejected() {
	d.mu.Lock()
	d.st.RemoteRejected++
	d.mu.Unlock()
}
