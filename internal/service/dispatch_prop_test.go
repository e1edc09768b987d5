package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"dnc/internal/service/faultplane"
	"dnc/internal/service/workerproto"
)

// ---- property-based lease-table test ----
//
// The lease table decides which worker runs which cell, and takes cells
// back from workers that die or freeze. Its invariants are what at-least-
// once execution stands on: a cell is in exactly one of pending and leased,
// none is ever lost, cells leave pending from the head, and a reassigned
// cell goes back to the head. The in-process client is the lease client of
// last resort: it is granted nothing while a remote worker is live, and
// everything pending once none is; it never expires, but the progress budget
// revokes its leases as it does a remote worker's. The table also keeps each
// cell's attempts: a reported failure, or a progress-budget revocation of a
// cell its worker still lists as active, spends one, a reaped worker's lease
// none, a new job joining a cell every earlier job left starts it afresh,
// and a cell out of retries (or failed non-transiently) resolves its
// waiters with the failure. The test drives
// the real dispatcher and a reference model through the same seeded random
// sequence of registrations, enqueues, lease calls (immediate and parked,
// remote and in-process), heartbeats, deliveries, reported failures
// (transient, non-transient and stale), waiter cancellations and clock
// advances, one of which reaps every remote worker and ages the in-process
// client's leases past the budget while its call is parked, and compares
// them after every step. Time is a fake clock and the only
// concurrency is parked lease calls, whose answers the model predicts —
// which call, how many cells, in what turn — so a failure replays from its
// seed.

// leaseModel is the reference: what the lease table should hold.
type leaseModel struct {
	now     time.Time
	ttl     time.Duration
	maxAge  time.Duration
	batch   int
	retries int
	workers map[string]*modelWorker // live remote workers
	local   *modelWorker            // the in-process client; never expires
	parked  []*modelWorker          // remote workers with a lease call parked, longest-waiting first
	// pending is the queue as groups: cells revoked in one step go to the
	// head together, in an order the dispatcher's map iteration picks, so
	// within a group order is not pinned; across groups it is.
	pending [][]string
	cells   map[string]*modelCell // outstanding: pending or leased
}

type modelWorker struct {
	id     string
	expiry time.Time
	leases map[string]time.Time // digest → granted at
	// The worker's parked lease call, if it has one out.
	call     *leaseCall
	callMax  int
	deadline time.Time
}

type modelCell struct {
	spec     workerproto.CellSpec
	waiters  []*modelWaiter
	attempts int // spent: reported failures and budget revocations
}

type modelWaiter struct {
	ch     <-chan remoteOutcome
	cancel func() int
}

func (m *leaseModel) clampMax(max int) int {
	if max <= 0 || max > m.batch {
		return m.batch
	}
	return max
}

func (m *leaseModel) pendingLen() int {
	n := 0
	for _, g := range m.pending {
		n += len(g)
	}
	return n
}

// take removes the granted digests from the head of pending, failing unless
// they are exactly a head of it: whole groups in order, then part of one.
func (m *leaseModel) take(t *testing.T, granted []string) {
	t.Helper()
	left := map[string]bool{}
	for _, d := range granted {
		if left[d] {
			t.Fatalf("cell %.8s granted twice in one step", d)
		}
		left[d] = true
	}
	for len(left) > 0 {
		if len(m.pending) == 0 {
			t.Fatalf("granted %d cells the model does not have pending", len(left))
		}
		var keep []string
		took := 0
		for _, d := range m.pending[0] {
			if left[d] {
				delete(left, d)
				took++
			} else {
				keep = append(keep, d)
			}
		}
		if took == 0 || (len(keep) > 0 && len(left) > 0) {
			t.Fatalf("grant %v skipped the head of pending %v", short(granted), m.pending)
		}
		if len(keep) == 0 {
			m.pending = m.pending[1:]
		} else {
			m.pending[0] = keep
		}
	}
}

func (m *leaseModel) dropPending(digest string) {
	for i, g := range m.pending {
		for j, d := range g {
			if d == digest {
				g = append(g[:j:j], g[j+1:]...)
				if len(g) == 0 {
					m.pending = append(m.pending[:i:i], m.pending[i+1:]...)
				} else {
					m.pending[i] = g
				}
				return
			}
		}
	}
}

// revoke returns the worker's lease on digest to the head group being built.
func (m *leaseModel) revoke(w *modelWorker, digest string, head *[]string) {
	delete(w.leases, digest)
	if _, ok := m.cells[digest]; ok {
		*head = append(*head, digest)
	}
}

// spend counts one attempt of an outstanding cell that ended without a
// result and reports whether it runs again; if not, the cell leaves the
// table and the outcome its waiters must hold is returned.
func (m *leaseModel) spend(digest string, err error, transient bool) (bool, remoteOutcome) {
	c := m.cells[digest]
	c.attempts++
	if transient && c.attempts <= m.retries {
		return true, remoteOutcome{}
	}
	m.leave(digest)
	return false, remoteOutcome{err: err, transient: transient, attempts: c.attempts}
}

// leave takes a resolved cell off the model's table.
func (m *leaseModel) leave(digest string) {
	delete(m.cells, digest)
	m.dropPending(digest)
	for _, w := range modelWorkers(m) {
		delete(w.leases, digest)
	}
}

func short(ds []string) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d[:8]
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestLeaseTableProperty(t *testing.T) {
	handBacks := 0
	for seed := int64(0); seed < 30; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { handBacks += runLeaseTableProperty(t, seed, 400) })
	}
	if handBacks == 0 && !t.Failed() {
		t.Fatal("no seed revoked an in-process lease past its budget while the in-process call was parked and no remote worker was live")
	}
}

// runLeaseTableProperty drives one seed's schedule and returns how many
// budget revocations of in-process leases went straight back to the parked
// in-process call (the model's branch for a revoked cell with no remote
// worker live).
func runLeaseTableProperty(t *testing.T, seed int64, ops int) (handBacks int) {
	rng := rand.New(rand.NewSource(seed))
	clk := faultplane.NewClock(time.Unix(1000, 0))
	m := &leaseModel{
		now: clk.Now(), ttl: 9 * time.Second, maxAge: 12 * time.Second, batch: 3,
		retries: int(seed % 3),
		workers: map[string]*modelWorker{}, cells: map[string]*modelCell{},
		local: &modelWorker{id: inProcessID, leases: map[string]time.Time{}},
	}
	d := newDispatcher(clk.Now, m.ttl, m.maxAge, m.batch, m.retries)
	errTimeout, errPoison := errors.New("timed out"), errors.New("panicked")
	lw := m.local
	// The in-process call parks with no deadline: this context ends it when
	// the test is over.
	localCtx, endLocal := context.WithCancel(context.Background())
	defer endLocal()
	var gone []*modelWaiter // waiters of cells no longer outstanding: each holds exactly one outcome
	var everyWorker []string
	enqueued, resolved := 0, 0

	// answered takes the longest-parked call off the model's list and waits
	// for the real call's answer.
	answered := func(why string) (*modelWorker, []workerproto.Lease, error) {
		t.Helper()
		w := m.parked[0]
		m.parked = m.parked[1:]
		leases, err := w.call.wait(t, why)
		w.call = nil
		return w, leases, err
	}
	// requeue is the model's revocation: the cells go back one at a time, in
	// an order the dispatcher's map iteration picks, and each goes straight
	// to the longest-parked call if there is one, else to the in-process
	// call if it may take cells (it takes the first, one cell, for nothing
	// else is pending then); the rest form the new head of pending. It
	// reports whether the in-process call took one.
	requeue := func(revoked []string) (toLocal bool) {
		t.Helper()
		left := map[string]bool{}
		for _, digest := range revoked {
			left[digest] = true
		}
		for len(left) > 0 && len(m.parked) > 0 {
			w, leases, err := answered("a revoked cell was its to take")
			if err != nil || len(leases) != 1 || !left[leases[0].Digest] {
				t.Fatalf("parked call answered %v (%v), want one of the revoked cells %v", leases, err, short(sortedKeys(left)))
			}
			delete(left, leases[0].Digest)
			w.leases[leases[0].Digest] = m.now
			w.expiry = m.now.Add(m.ttl)
		}
		if len(left) > 0 && lw.call != nil && len(m.workers) == 0 {
			leases, err := lw.call.wait(t, "a revoked cell was the in-process client's to take")
			lw.call = nil
			if err != nil || len(leases) != 1 || !left[leases[0].Digest] {
				t.Fatalf("in-process call answered %v (%v), want one of the revoked cells %v", leases, err, short(sortedKeys(left)))
			}
			delete(left, leases[0].Digest)
			lw.leases[leases[0].Digest] = m.now
			toLocal = true
		}
		if len(left) > 0 {
			m.pending = append([][]string{sortedKeys(left)}, m.pending...)
		}
		return toLocal
	}
	// grantLocal records the cells the in-process client was granted.
	grantLocal := func(leases []workerproto.Lease, err error, want int) {
		t.Helper()
		if err != nil || len(leases) != want {
			t.Fatalf("in-process lease answered %d cells (%v), want %d of the %d pending", len(leases), err, want, m.pendingLen())
		}
		var granted []string
		for _, l := range leases {
			granted = append(granted, l.Digest)
			lw.leases[l.Digest] = m.now
		}
		m.take(t, granted)
	}
	// offer is the model's hand-off: while cells are pending and calls are
	// parked, the longest-parked call is answered with as many as it asked
	// for, from the head; what is left goes to the in-process call if no
	// remote worker is live.
	offer := func() {
		t.Helper()
		for m.pendingLen() > 0 && len(m.parked) > 0 {
			want := min(m.parked[0].callMax, m.pendingLen())
			w, leases, err := answered("cells became pending and it was its turn")
			if err != nil || len(leases) != want {
				t.Fatalf("parked call answered %d cells (%v), want %d of the %d pending", len(leases), err, want, m.pendingLen())
			}
			var granted []string
			for _, l := range leases {
				granted = append(granted, l.Digest)
				w.leases[l.Digest] = m.now
			}
			m.take(t, granted)
			w.expiry = m.now.Add(m.ttl) // a return renews
		}
		if lw.call != nil && m.pendingLen() > 0 && len(m.workers) == 0 {
			want := min(lw.callMax, m.pendingLen())
			leases, err := lw.call.wait(t, "the last remote worker was gone and cells were pending")
			lw.call = nil
			grantLocal(leases, err, want)
		}
		// Everyone else is still parked, in the model's order.
		waitParked(t, d, len(m.parked))
		if lw.call != nil {
			yieldUntil(t, "the in-process call parked", func() bool {
				d.mu.Lock()
				defer d.mu.Unlock()
				return d.localCall != nil
			})
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		for i, w := range m.parked {
			if d.parked[i].w != d.workers[w.id] {
				t.Fatalf("parked call %d belongs to %s, the model says %s", i, d.parked[i].w.id, w.id)
			}
		}
	}

	// resolve checks that every waiter of a cell that left the table holds
	// exactly one outcome, the expected one: its error (nil for a result),
	// transience and attempts, at most Retries+1. Only a failure reported
	// as non-transient may be dead-lettered.
	resolve := func(c *modelCell, want remoteOutcome) {
		t.Helper()
		if want.attempts < 1 || want.attempts > m.retries+1 {
			t.Fatalf("the model resolves a cell after %d attempts, want 1..%d", want.attempts, m.retries+1)
		}
		for _, w := range c.waiters {
			select {
			case out := <-w.ch:
				if !errors.Is(out.err, want.err) || out.transient != want.transient || out.attempts != want.attempts {
					t.Fatalf("waiter got %v (transient %v, %d attempts), want %v (transient %v, %d attempts)",
						out.err, out.transient, out.attempts, want.err, want.transient, want.attempts)
				}
				if deadLetter := out.err != nil && !out.transient; deadLetter && !errors.Is(out.err, errPoison) {
					t.Fatalf("%v would be dead-lettered; only a reported non-transient failure may be", out.err)
				}
			default:
				t.Fatal("a waiter of a resolved cell was not woken")
			}
			gone = append(gone, w)
		}
		resolved++
	}

	check := func(step int, op string) {
		t.Helper()
		d.mu.Lock()
		defer d.mu.Unlock()
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d (%s): %s", seed, step, op, fmt.Sprintf(format, args...))
		}
		// Pending: the model's groups, in order, each as a set.
		i := 0
		for _, g := range m.pending {
			if i+len(g) > len(d.pending) {
				fail("pending has %d cells, the model %d", len(d.pending), m.pendingLen())
			}
			got := map[string]bool{}
			for _, c := range d.pending[i : i+len(g)] {
				got[c.digest] = true
			}
			for _, digest := range g {
				if !got[digest] {
					fail("pending[%d:%d] lacks %.8s; a reassigned cell is not at the head, or FIFO order broke", i, i+len(g), digest)
				}
			}
			i += len(g)
		}
		if i != len(d.pending) {
			fail("pending has %d cells, the model %d", len(d.pending), i)
		}
		// Every outstanding cell is in exactly one of pending and leased.
		where := map[string]int{}
		for _, c := range d.pending {
			where[c.digest]++
			if c.leased {
				fail("pending cell %.8s is marked leased", c.digest)
			}
		}
		if len(d.workers) != len(m.workers) {
			fail("%d live workers, the model %d", len(d.workers), len(m.workers))
		}
		byID := map[string]*modelWorker{inProcessID: lw}
		for id, mw := range m.workers {
			byID[id] = mw
		}
		for id, mw := range byID {
			w := d.workerLocked(id)
			if w == nil {
				fail("worker %s is gone", id)
			}
			if mw != lw && !w.expiry.Equal(mw.expiry) {
				fail("worker %s expires %v, the model %v", id, w.expiry.Sub(m.now), mw.expiry.Sub(m.now))
			}
			if fmt.Sprint(sortedKeys(w.leases)) != fmt.Sprint(sortedKeys(mw.leases)) {
				fail("worker %s holds %v, the model %v", id, short(sortedKeys(w.leases)), short(sortedKeys(mw.leases)))
			}
			for digest, l := range w.leases {
				where[digest]++
				if !l.cell.leased || !l.grantedAt.Equal(mw.leases[digest]) {
					fail("lease %.8s of %s: leased=%v granted %v, the model %v", digest, id, l.cell.leased, l.grantedAt, mw.leases[digest])
				}
			}
		}
		if len(d.byCell) != len(m.cells) {
			fail("%d outstanding cells, the model %d", len(d.byCell), len(m.cells))
		}
		for digest, mc := range m.cells {
			c, ok := d.byCell[digest]
			if !ok {
				fail("cell %.8s lost", digest)
			}
			if where[digest] != 1 {
				fail("cell %.8s is in %d places, want exactly one of pending and leased", digest, where[digest])
			}
			if len(c.waiters) != len(mc.waiters) {
				fail("cell %.8s has %d waiters, the model %d", digest, len(c.waiters), len(mc.waiters))
			}
		}
		if enqueued != resolved+len(m.cells) {
			fail("%d cells entered the table, %d left it and %d are outstanding", enqueued, resolved, len(m.cells))
		}
		// Attempts: the model's count, never past Retries while outstanding.
		// No waiter holds an outcome it has not been checked for: a cell
		// still outstanding has told nobody, and a resolved one told each
		// waiter once.
		for digest, mc := range m.cells {
			if got := d.byCell[digest].attempts; got != mc.attempts || got > m.retries {
				fail("cell %.8s spent %d attempts, the model %d (retries %d)", digest, got, mc.attempts, m.retries)
			}
			for _, w := range mc.waiters {
				if len(w.ch) != 0 {
					fail("a waiter of outstanding cell %.8s holds an outcome", digest)
				}
			}
		}
		for _, w := range gone {
			if len(w.ch) != 0 {
				fail("a waiter was answered twice")
			}
		}
	}

	pick := func(ids []string) string { return ids[rng.Intn(len(ids))] }

	// heartbeat sends worker id's heartbeat (w is its model, live whether it
	// is), listing most of its leases as active and perhaps a stale cell, and
	// applies the model's budget revocations.
	heartbeat := func(step int, id string, w *modelWorker, live bool) {
		t.Helper()
		var active []string
		stale := ""
		if live {
			for _, digest := range sortedKeys(w.leases) {
				// A worker may not list a lease it holds: it never got
				// the lease answer, or dropped a refused upload.
				if rng.Intn(4) != 0 {
					active = append(active, digest)
				}
			}
			if len(m.cells) > 0 && rng.Intn(3) == 0 {
				// Claim a cell this worker may not hold (any more).
				if stale = pick(sortedKeys(m.cells)); !w.leases[stale].IsZero() {
					stale = ""
				} else {
					active = append(active, stale)
				}
			}
		}
		revoked, err := d.heartbeat(id, active)
		if !live {
			if !errors.Is(err, workerproto.ErrUnknownWorker) {
				t.Fatalf("seed %d step %d: heartbeat of reaped %s = %v, want workerproto.ErrUnknownWorker", seed, step, id, err)
			}
			return
		}
		want := map[string]bool{}
		var head []string
		for _, digest := range sortedKeys(w.leases) {
			if m.now.Sub(w.leases[digest]) > m.maxAge {
				want[digest] = true
				c := m.cells[digest]
				if !slices.Contains(active, digest) {
					m.revoke(w, digest, &head) // not running it: no attempt spent
				} else if again, out := m.spend(digest, errLeaseBudget, true); again {
					m.revoke(w, digest, &head)
				} else {
					resolve(c, out)
				}
			}
		}
		if stale != "" {
			want[stale] = true
		}
		w.expiry = m.now.Add(m.ttl)
		if requeue(head) && w == lw && len(m.workers) == 0 {
			handBacks++
		}
		sort.Strings(revoked)
		if err != nil || fmt.Sprint(revoked) != fmt.Sprint(sortedKeys(want)) {
			t.Fatalf("seed %d step %d: heartbeat revoked %v (%v), want %v", seed, step, short(revoked), err, short(sortedKeys(want)))
		}
	}

	// advance moves the fake clock dt on and runs the server's sweep: calls
	// at their bound are answered, and workers past their expiry are reaped,
	// their leases revoked.
	advance := func(step int, dt time.Duration) {
		t.Helper()
		clk.Advance(dt)
		m.now = m.now.Add(dt)
		d.expire()
		// The sweep first answers the calls whose heartbeat period is up,
		// empty, whatever it goes on to revoke.
		for len(m.parked) > 0 && !m.now.Before(m.parked[0].deadline) {
			w, leases, err := answered("its bound passed")
			if m.now.After(w.expiry) {
				if !errors.Is(err, workerproto.ErrUnknownWorker) {
					t.Fatalf("seed %d step %d: parked call of a reaped worker = %v, want workerproto.ErrUnknownWorker", seed, step, err)
				}
				continue
			}
			if err != nil || len(leases) != 0 {
				t.Fatalf("seed %d step %d: call at its bound answered %v, %v; want an empty grant", seed, step, leases, err)
			}
			w.expiry = m.now.Add(m.ttl)
		}
		var head, reaped []string
		for _, id := range sortedKeys(m.workers) {
			w := m.workers[id]
			if !m.now.After(w.expiry) {
				continue
			}
			for _, digest := range sortedKeys(w.leases) {
				// A reap spends no attempt: check() compares the count.
				m.revoke(w, digest, &head)
			}
			reaped = append(reaped, id)
		}
		// The reaped workers count as live until every lease is back in
		// the queue; once the plane has emptied, offer hands what is
		// pending, revoked cells first, to the in-process call.
		requeue(head)
		for _, id := range reaped {
			delete(m.workers, id)
		}
	}

	for step := 0; step < ops; step++ {
		op := ""
		switch r := rng.Intn(100); {
		case r < 8 || len(everyWorker) == 0:
			op = "register"
			id := d.register("w", 1+rng.Intn(3)).WorkerID
			m.workers[id] = &modelWorker{id: id, expiry: m.now.Add(m.ttl), leases: map[string]time.Time{}}
			everyWorker = append(everyWorker, id)

		case r < 30:
			op = "enqueue"
			spec := testCell(int64(rng.Intn(24)))
			digest := spec.Digest()
			ch, cancel := d.enqueue(spec, "")
			c, ok := m.cells[digest]
			if !ok {
				c = &modelCell{spec: spec}
				m.cells[digest] = c
				m.pending = append(m.pending, []string{digest})
				enqueued++
			}
			if len(c.waiters) == 0 {
				c.attempts = 0 // a new job's attempts start afresh
			}
			c.waiters = append(c.waiters, &modelWaiter{ch, cancel})

		case r < 55 && rng.Intn(4) == 0:
			// The in-process client's lease call: answered at once if
			// something is pending and no remote worker is live, parked
			// otherwise.
			max := rng.Intn(5) - 1
			switch {
			case lw.call != nil:
				continue
			case m.pendingLen() > 0 && len(m.workers) == 0:
				op = "lease (in-process)"
				leases, err := d.lease(localCtx, inProcessID, max)
				grantLocal(leases, err, min(m.clampMax(max), m.pendingLen()))
			default:
				op = "lease (in-process, parks)"
				lw.call = startLease(localCtx, d, inProcessID, max)
				lw.callMax = m.clampMax(max)
			}

		case r < 55:
			// A lease call from any remote worker ever registered: answered
			// at once if something is pending or the worker is gone, parked
			// otherwise.
			id := pick(everyWorker)
			max := rng.Intn(5) - 1
			w, live := m.workers[id]
			switch {
			case live && w.call != nil:
				continue // a worker has one lease loop
			case !live:
				op = "lease (reaped worker)"
				if _, err := d.lease(context.Background(), id, max); !errors.Is(err, workerproto.ErrUnknownWorker) {
					t.Fatalf("seed %d step %d: lease of reaped %s = %v, want workerproto.ErrUnknownWorker", seed, step, id, err)
				}
			case m.pendingLen() > 0:
				op = "lease"
				leases, err := d.lease(context.Background(), id, max)
				if err != nil {
					t.Fatalf("seed %d step %d: lease: %v", seed, step, err)
				}
				if want := min(m.clampMax(max), m.pendingLen()); len(leases) != want {
					t.Fatalf("seed %d step %d: lease(max %d) granted %d of %d pending, want %d",
						seed, step, max, len(leases), m.pendingLen(), want)
				}
				var granted []string
				for _, l := range leases {
					if l.Spec.Digest() != l.Digest || m.cells[l.Digest] == nil {
						t.Fatalf("seed %d step %d: lease carries a wrong or unknown cell %+v", seed, step, l)
					}
					granted = append(granted, l.Digest)
					w.leases[l.Digest] = m.now
				}
				m.take(t, granted)
				w.expiry = m.now.Add(m.ttl)
			default:
				op = "lease (parks)"
				w.call = startLease(context.Background(), d, id, max)
				w.callMax = m.clampMax(max)
				w.deadline = m.now.Add(m.ttl / 3)
				w.expiry = m.now.Add(m.ttl) // entry renews
				m.parked = append(m.parked, w)
			}

		case r < 70:
			op = "heartbeat"
			id := pick(everyWorker)
			w, live := m.workers[id]
			if rng.Intn(4) == 0 {
				op, id, w, live = "heartbeat (in-process)", inProcessID, lw, true
			}
			heartbeat(step, id, w, live)

		case r < 76:
			op = "deliver"
			digest := testCell(int64(rng.Intn(24))).Digest()
			c, outstanding := m.cells[digest]
			if got := d.deliver(digest, remoteOutcome{}); got != outstanding {
				t.Fatalf("seed %d step %d: deliver(%.8s) = %v, outstanding = %v", seed, step, digest, got, outstanding)
			}
			if outstanding {
				m.leave(digest)
				resolve(c, remoteOutcome{attempts: c.attempts + 1})
			}

		case r < 82:
			// A reported failure. Usually from the worker holding the cell's
			// lease, which ends that grant; otherwise stale (the reporter holds
			// no lease on it), which changes nothing.
			type held struct {
				w      *modelWorker
				digest string
			}
			var leases []held
			for _, w := range modelWorkers(m) {
				for _, digest := range sortedKeys(w.leases) {
					leases = append(leases, held{w, digest})
				}
			}
			transient := rng.Intn(2) == 0
			err := errPoison
			if transient {
				err = errTimeout
			}
			if len(leases) == 0 || rng.Intn(4) == 0 {
				op = "report a failure (stale)"
				id := inProcessID
				if len(everyWorker) > 0 && rng.Intn(3) != 0 {
					id = pick(everyWorker)
				}
				digest := testCell(int64(rng.Intn(24))).Digest()
				w := m.workers[id]
				if id == inProcessID {
					w = lw
				}
				if w != nil && !w.leases[digest].IsZero() {
					continue
				}
				if d.fail(digest, id, err, transient) {
					t.Fatalf("seed %d step %d: a stale failure report of %.8s by %s was taken", seed, step, digest, id)
				}
				break
			}
			op = "report a failure"
			l := leases[rng.Intn(len(leases))]
			c := m.cells[l.digest]
			if !d.fail(l.digest, l.w.id, err, transient) {
				t.Fatalf("seed %d step %d: %s's failure report of its lease %.8s was refused", seed, step, l.w.id, l.digest)
			}
			if again, out := m.spend(l.digest, err, transient); again {
				var head []string
				m.revoke(l.w, l.digest, &head)
				requeue(head)
			} else {
				resolve(c, out)
			}

		case r < 88:
			if len(m.cells) == 0 {
				continue
			}
			op = "cancel a waiter"
			digest := pick(sortedKeys(m.cells))
			c := m.cells[digest]
			if len(c.waiters) == 0 {
				continue // leased and already abandoned by every job
			}
			i := rng.Intn(len(c.waiters))
			c.waiters[i].cancel()
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			leased := false
			for _, w := range modelWorkers(m) {
				if !w.leases[digest].IsZero() {
					leased = true
				}
			}
			if len(c.waiters) == 0 && !leased {
				delete(m.cells, digest)
				m.dropPending(digest)
				resolved++
			}

		case r < 90 && rng.Intn(3) == 0:
			// Reap every remote worker, park the in-process call, and age its
			// leases past the budget: its next heartbeat revokes them with no
			// remote worker live, and each goes straight back to its call.
			op = "reap all, age the in-process leases"
			advance(step, m.ttl+time.Second)
			offer()
			for lw.call == nil {
				if m.pendingLen() == 0 {
					lw.call = startLease(localCtx, d, inProcessID, -1)
					lw.callMax = m.batch
					yieldUntil(t, "the in-process call parked", func() bool {
						d.mu.Lock()
						defer d.mu.Unlock()
						return d.localCall != nil
					})
					break
				}
				leases, err := d.lease(localCtx, inProcessID, -1)
				grantLocal(leases, err, min(m.batch, m.pendingLen()))
			}
			advance(step, m.maxAge+time.Second)
			heartbeat(step, inProcessID, lw, true)

		default:
			op = "advance and sweep"
			advance(step, time.Duration(rng.Intn(5))*time.Second)
		}
		offer()
		check(step, op)
	}

	// No cell lost: deliver what is left, and every waiter that did not
	// cancel has been answered exactly once.
	for _, digest := range sortedKeys(m.cells) {
		if !d.deliver(digest, remoteOutcome{}) {
			t.Fatalf("seed %d: outstanding cell %.8s was not deliverable at the end", seed, digest)
		}
		resolve(m.cells[digest], remoteOutcome{attempts: m.cells[digest].attempts + 1})
	}
	for _, w := range gone {
		select {
		case out := <-w.ch:
			t.Fatalf("seed %d: a waiter was answered twice (second: %+v)", seed, out)
		default:
		}
	}
	if st := d.stats(); st.RemotePending != 0 || st.LeaseDepth != 0 {
		t.Fatalf("seed %d: table not empty at the end: %+v", seed, st)
	}
	// Let the parked calls go before the test returns.
	clk.Advance(m.ttl)
	d.expire()
	for _, w := range m.parked {
		w.call.wait(t, "the end of the test")
	}
	endLocal()
	if lw.call != nil {
		if leases, err := lw.call.wait(t, "its context ended"); err != nil || len(leases) != 0 {
			t.Fatalf("seed %d: in-process call at the end answered %v, %v", seed, leases, err)
		}
	}
	return handBacks
}

// modelWorkers lists the model's live workers, the in-process client
// included.
func modelWorkers(m *leaseModel) []*modelWorker {
	out := []*modelWorker{m.local}
	for _, id := range sortedKeys(m.workers) {
		out = append(out, m.workers[id])
	}
	return out
}
