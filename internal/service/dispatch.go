package service

import (
	"context"
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

// The execution plane. The dispatcher is the server side of the work API:
// a lease table that hands pending cells to registered workers in batches,
// renews leases on heartbeats, and reassigns the cells of workers that die
// (missed heartbeats) or freeze (heartbeats continue, progress doesn't —
// each lease carries a progress budget, the same idea as the simulator's
// livelock watchdog). Execution is at-least-once; the admission path in
// Server.completeCell verifies every upload's content address and the
// first-insert-wins cache makes duplicates provably harmless, so
// reassignment never risks double-admitting a cell.
//
// Besides the remote workers, the table holds the server's in-process
// client, the lease client of last resort: granted nothing while a remote
// worker is live and everything pending once none is. It never expires, has
// no progress budget, and the worker counters leave it out.

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

// remoteOutcome is what a waiter receives: a result admitted from an
// upload, or the execution's reported error.
type remoteOutcome struct {
	r   sim.Result
	err error
}

// remoteCell is one cell on the lease plane: pending (awaiting a lease) or
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

// inProcessID is the in-process client's worker ID (refused over HTTP).
const inProcessID = "in-process"

// workerState is one live registered worker.
type workerState struct {
	id     string
	name   string
	expiry time.Time // lastBeat + TTL; any API call renews it
	leases map[string]*lease
}

// lease is one cell granted to one worker.
type lease struct {
	cell      *remoteCell
	worker    *workerState
	grantedAt time.Time // fixed at grant: the progress budget anchor
}

// dispatchStats is the worker-plane accounting, each field a /metrics series.
type dispatchStats struct {
	// WorkersRegistered counts registrations ever (this process).
	WorkersRegistered uint64
	// WorkersLive is the current live (heartbeating) remote worker count;
	// while it is zero the in-process client runs the cells.
	WorkersLive int
	// WorkersExpired counts workers that missed their heartbeat window.
	WorkersExpired uint64
	// LeaseDepth is cells currently leased (in-process ones included).
	LeaseDepth int
	// RemotePending is cells queued for the next lease request.
	RemotePending int
	// Reassigned counts leases revoked and returned to the queue (dead or
	// frozen workers).
	Reassigned uint64
	// RemoteAdmitted counts fresh results admitted from uploads;
	// RemoteDuplicates counts bit-identical redeliveries acknowledged
	// idempotently; RemoteRejected counts uploads refused by admission
	// verification (digest mismatch, unknown cell, result mismatch). All
	// three count in-process uploads too.
	RemoteAdmitted   uint64
	RemoteDuplicates uint64
	RemoteRejected   uint64
}

// dispatcher owns the lease table. All methods are safe for concurrent use.
type dispatcher struct {
	mu  sync.Mutex
	now func() time.Time

	ttl      time.Duration
	maxAge   time.Duration
	batchMax int

	seq     int
	workers map[string]*workerState // live remote workers only
	byCell  map[string]*remoteCell  // every outstanding cell, pending or leased
	pending []*remoteCell           // FIFO; reassigned cells go to the front

	// local is the in-process client, and localCall its parked lease call
	// (which has no deadline, so it waits apart from parked).
	local     *workerState
	localCall *parkedLease

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
		local:    &workerState{id: inProcessID, name: inProcessID, leases: make(map[string]*lease)},
		log:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// register admits a remote worker and issues its identity and timing
// contract.
func (d *dispatcher) register(name string, capacity int) workerproto.RegisterResponse {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq++
	d.st.WorkersRegistered++
	w := &workerState{
		id:     fmt.Sprintf("w%06d", d.seq),
		name:   name,
		expiry: d.now().Add(d.ttl),
		leases: make(map[string]*lease),
	}
	d.workers[w.id] = w
	d.log.Info("worker registered", "worker", w.id, "name", name, "capacity", capacity)
	return d.contract(w)
}

// contract is the identity and timing a registration is issued.
func (d *dispatcher) contract(w *workerState) workerproto.RegisterResponse {
	return workerproto.RegisterResponse{
		WorkerID:      w.id,
		LeaseTTLMS:    d.ttl.Milliseconds(),
		HeartbeatMS:   d.heartbeatEvery().Milliseconds(),
		LeaseBatchMax: d.batchMax,
	}
}

// workerLocked resolves a worker ID to its live registration, or nil.
func (d *dispatcher) workerLocked(id string) *workerState {
	if id == inProcessID {
		return d.local
	}
	return d.workers[id]
}

// grantsLocked reports whether w may be granted cells: the in-process
// client only while no remote worker is live.
func (d *dispatcher) grantsLocked(w *workerState) bool {
	return w != d.local || len(d.workers) == 0
}

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
// returns an empty grant, or ErrUnknownWorker if the worker was reaped
// meanwhile. The worker is renewed on entry and on return and by nothing in
// between: a call whose client vanished silently must not keep its worker
// alive past one more TTL. The in-process client's call has no deadline.
func (d *dispatcher) lease(ctx context.Context, workerID string, max int) ([]workerproto.Lease, error) {
	if max <= 0 || max > d.batchMax {
		max = d.batchMax
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	w := d.workerLocked(workerID)
	if w == nil {
		return nil, workerproto.ErrUnknownWorker
	}
	if ctx.Err() != nil {
		return nil, nil
	}
	d.touch(w)
	if len(d.pending) > 0 && d.grantsLocked(w) {
		return d.grantLocked(w, max), nil
	}
	p := &parkedLease{w: w, max: max, done: make(chan struct{})}
	if w == d.local {
		d.localCall = p
	} else {
		p.deadline = d.now().Add(d.heartbeatEvery())
		d.parked = append(d.parked, p)
	}
	d.mu.Unlock()
	select {
	case <-p.done:
	case <-ctx.Done():
	}
	d.mu.Lock()
	if i := slices.Index(d.parked, p); i >= 0 {
		d.parked = slices.Delete(d.parked, i, i+1)
	}
	if d.localCall == p {
		d.localCall = nil
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
	if d.workerLocked(workerID) != w {
		return nil, workerproto.ErrUnknownWorker
	}
	d.touch(w)
	return p.leases, nil
}

// offerLocked hands pending cells to parked lease calls, longest-waiting
// first, then to the in-process call if it may take them. Every path that
// grows pending, or empties the remote plane, calls it.
func (d *dispatcher) offerLocked() {
	for len(d.pending) > 0 && len(d.parked) > 0 {
		p := d.unparkLocked()
		p.leases = d.grantLocked(p.w, p.max)
	}
	if p := d.localCall; p != nil && len(d.pending) > 0 && d.grantsLocked(p.w) {
		d.localCall = nil
		close(p.done)
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

// heartbeat renews the worker and all its leases, revoking any remote lease
// past the progress budget (the frozen-worker watchdog: beats arrive,
// results don't). Revoked digests are reported so the worker abandons them.
func (d *dispatcher) heartbeat(workerID string, active []string) ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	w := d.workerLocked(workerID)
	if w == nil {
		return nil, workerproto.ErrUnknownWorker
	}
	d.touch(w)
	now := d.now()
	seen := make(map[string]bool)
	var revoked []string
	for digest, l := range w.leases {
		if w != d.local && now.Sub(l.grantedAt) > d.maxAge {
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
// their leases — to the in-process client, with every other pending cell,
// once the last remote worker is gone. Before that it answers, empty, the
// parked lease calls whose heartbeat period is up: the expiry sweep, not a
// timer per call, is what ends a park on its bound — under a fake clock too.
// (Calls park in deadline order, and a worker's TTL outlasts its call's
// park, so a reaped worker's call has always been answered first.)
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
	d.offerLocked()
}

// expire is the background sweep entry point.
func (d *dispatcher) expire() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
}

// enqueue places a cell on the lease plane and returns the channel its
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

// deliver resolves an outstanding cell — a verified result admitted from an
// upload (err nil) or a reported execution failure — waking every waiter.
// It reports whether the cell was outstanding.
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
	delete(d.local.leases, digest)
	for _, ch := range c.waiters {
		ch <- out
	}
	return true
}

// outstanding reports whether the cell is known to the lease plane
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
	st.LeaseDepth = len(d.local.leases)
	for _, w := range d.workers {
		st.LeaseDepth += len(w.leases)
	}
	return st
}

// countUpload folds one admission verdict (admitted, duplicate, rejected)
// into the stats.
func (d *dispatcher) countUpload(verdict string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch verdict {
	case workerproto.StatusAdmitted:
		d.st.RemoteAdmitted++
	case workerproto.StatusDuplicate:
		d.st.RemoteDuplicates++
	default:
		d.st.RemoteRejected++
	}
}
