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
// It is also the one place that counts a cell's attempts: see spendLocked.
//
// Besides the remote workers, the table holds the server's in-process
// client, the lease client of last resort: granted nothing while a remote
// worker is live and everything pending once none is. It never expires and
// the worker counters leave it out, but its leases carry the same progress
// budget as a remote worker's: LeaseMaxAge is the one clock on an attempt.

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

// errLeaseBudget ends an attempt the progress budget revoked.
var errLeaseBudget = errors.New("service: lease revoked: no result within the progress budget")

// remoteOutcome is what a waiter receives when its cell leaves the table:
// the digest of the result admitted from an upload, or the error that ended
// the last attempt. attempts counts the cell's attempts, that one included.
type remoteOutcome struct {
	resultDigest string
	err          error
	transient    bool
	attempts     int
}

// remoteCell is one cell on the lease plane: pending (awaiting a lease) or
// leased (awaiting completion). Several concurrent jobs can contain the
// same cell; each gets its own waiter channel and one execution feeds all.
type remoteCell struct {
	digest   string
	spec     workerproto.CellSpec
	waiters  []chan remoteOutcome
	leased   bool // held by a worker right now (not in pending)
	attempts int  // attempts spent: grants that ended without a result
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
	// Retried counts cells spendLocked sent back to the queue.
	Retried uint64
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
	retries  int // attempts a cell may spend beyond its first

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
	// telemetry disabled) and never reassigned once the server starts.
	rec *telemetry.Recorder
	log *slog.Logger
}

func newDispatcher(now func() time.Time, ttl, maxAge time.Duration, batchMax, retries int) *dispatcher {
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
		retries:  retries,
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
				d.revokeLocked(l, false)
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

// heartbeat renews the worker and all its leases, revoking any lease past
// the progress budget (the frozen-worker watchdog: beats arrive, results
// don't), the in-process client's included. Revoked digests are reported so
// the worker abandons them.
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
		if now.Sub(l.grantedAt) > d.maxAge {
			d.revokeLocked(l, slices.Contains(active, digest))
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

// revokeLocked takes a lease back from its worker. A progress-budget
// revocation of a cell its worker still lists as active spends an attempt;
// a reaped worker's lease, one its lease call left without, or one the
// worker never got or already dropped (a lost lease answer, a refused
// upload) spends none.
func (d *dispatcher) revokeLocked(l *lease, budget bool) {
	c := l.cell
	delete(l.worker.leases, c.digest)
	d.rec.ExecEnd(c.digest, l.worker.id, "revoked")
	d.log.Warn("lease revoked", "span", telemetry.SpanID(c.digest), "worker", l.worker.id,
		"held", d.now().Sub(l.grantedAt).String(), "budget", budget)
	if budget && !d.spendLocked(c, remoteOutcome{err: errLeaseBudget, transient: true}) {
		return
	}
	d.st.Reassigned++
	d.requeueLocked(c)
}

// spendLocked counts an attempt that ended without a result (a reported
// failure or a progress-budget revocation; a TTL reap is not one) and
// reports whether the cell may run again: out is transient and retries are
// left. If not, every waiter is resolved with out.
func (d *dispatcher) spendLocked(c *remoteCell, out remoteOutcome) bool {
	c.attempts++
	if out.transient && c.attempts <= d.retries {
		d.st.Retried++
		return true
	}
	out.attempts = c.attempts
	d.resolveLocked(c, out)
	return false
}

// requeueLocked returns a cell that lost its lease to the head of pending
// (it has already waited its turn once).
func (d *dispatcher) requeueLocked(c *remoteCell) {
	c.leased = false
	d.pending = slices.Insert(d.pending, 0, c)
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
				d.revokeLocked(l, false)
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
// not currently leased), which reports the attempts the cell has spent (0
// once it has left the table).
func (d *dispatcher) enqueue(spec workerproto.CellSpec, traceID string) (<-chan remoteOutcome, func() int) {
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
	if len(c.waiters) == 0 {
		c.attempts = 0 // a leased cell every earlier job left: theirs were spent
	}
	c.waiters = append(c.waiters, ch)
	d.mu.Unlock()

	cancel := func() int {
		d.mu.Lock()
		defer d.mu.Unlock()
		c, ok := d.byCell[digest]
		if !ok {
			return 0
		}
		if i := slices.Index(c.waiters, ch); i >= 0 {
			c.waiters = slices.Delete(c.waiters, i, i+1)
		}
		if len(c.waiters) == 0 && !c.leased {
			// Nobody wants it and no worker is running it: drop it from the
			// queue so it cannot be leased pointlessly.
			d.dropLocked(c)
		}
		return c.attempts
	}
	return ch, cancel
}

// deliver resolves an outstanding cell with the result admitted from an
// upload, waking every waiter; the grant that produced it is the cell's
// last attempt. It reports whether the cell was outstanding.
func (d *dispatcher) deliver(digest string, out remoteOutcome) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.byCell[digest]
	if !ok {
		return false
	}
	out.attempts = c.attempts + 1
	d.resolveLocked(c, out)
	return true
}

// fail ends the worker's grant of the cell with a reported execution
// failure (spendLocked). It reports false, and changes nothing, when the
// worker holds no lease on the cell: that grant already ended.
func (d *dispatcher) fail(digest, workerID string, err error, transient bool) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.workerLocked(workerID)
	if w == nil {
		return false
	}
	l, held := w.leases[digest]
	if !held {
		return false
	}
	delete(w.leases, digest)
	if d.spendLocked(l.cell, remoteOutcome{err: err, transient: transient}) {
		d.requeueLocked(l.cell)
	}
	return true
}

// resolveLocked takes a cell off the table, clearing any live lease on it
// (a reassigned one some other worker still holds included — its eventual
// upload is acknowledged as a duplicate), and hands out to every waiter.
func (d *dispatcher) resolveLocked(c *remoteCell, out remoteOutcome) {
	d.dropLocked(c)
	for _, w := range d.workers {
		delete(w.leases, c.digest)
	}
	delete(d.local.leases, c.digest)
	for _, ch := range c.waiters {
		ch <- out
	}
}

// dropLocked takes a cell off the table and out of pending.
func (d *dispatcher) dropLocked(c *remoteCell) {
	delete(d.byCell, c.digest)
	if i := slices.Index(d.pending, c); i >= 0 {
		d.pending = slices.Delete(d.pending, i, i+1)
	}
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
