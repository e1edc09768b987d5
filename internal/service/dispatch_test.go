package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"dnc/internal/service/faultplane"
	"dnc/internal/service/workerproto"
)

// Dispatcher unit tests drive the lease table through a fake clock
// (faultplane.Clock), so TTL expiry and the frozen-worker budget are exact
// instants rather than sleeps: the tests are deterministic and instant.
// Each cell gets one retry, so a lease the budget revokes is reassigned.

func testDispatcher(clk *faultplane.Clock, ttl, maxAge time.Duration) *dispatcher {
	return newDispatcher(clk.Now, ttl, maxAge, 4, 1)
}

func testCell(seed int64) workerproto.CellSpec {
	return workerproto.CellSpec{
		Workload: "Web-Frontend", Design: "baseline",
		Cores: 2, Warm: 600, Measure: 600, Seed: seed,
	}
}

func TestDispatchLeaseExpiryReassignsToLiveWorker(t *testing.T) {
	clk := faultplane.NewClock(time.Unix(1000, 0))
	d := testDispatcher(clk, 10*time.Second, time.Hour)

	a := d.register("a", 1)
	spec := testCell(1)
	ch, cancel := d.enqueue(spec, "")
	defer cancel()

	leases, err := d.lease(context.Background(), a.WorkerID, 4)
	if err != nil || len(leases) != 1 {
		t.Fatalf("lease to a = %v, %v; want 1 lease", leases, err)
	}
	if leases[0].Digest != spec.Digest() || leases[0].Spec != spec {
		t.Fatalf("lease carries wrong cell: %+v", leases[0])
	}

	// a goes silent past its TTL; b registers fresh and must inherit the
	// cell on its next lease call.
	clk.Advance(9 * time.Second)
	b := d.register("b", 1)
	clk.Advance(2 * time.Second) // a is now 11s silent; b only 2s old
	d.expire()

	st := d.stats()
	if st.WorkersExpired != 1 || st.WorkersLive != 1 || st.Reassigned != 1 {
		t.Fatalf("stats after expiry = %+v; want 1 expired, 1 live, 1 reassigned", st)
	}
	leases, err = d.lease(context.Background(), b.WorkerID, 4)
	if err != nil || len(leases) != 1 || leases[0].Digest != spec.Digest() {
		t.Fatalf("reassigned lease to b = %v, %v; want the original cell", leases, err)
	}

	// The dead worker's ID is rejected until it re-registers.
	if _, err := d.lease(context.Background(), a.WorkerID, 4); !errors.Is(err, workerproto.ErrUnknownWorker) {
		t.Fatalf("lease with expired id = %v, want workerproto.ErrUnknownWorker", err)
	}
	if _, err := d.heartbeat(a.WorkerID, nil); !errors.Is(err, workerproto.ErrUnknownWorker) {
		t.Fatalf("heartbeat with expired id = %v, want workerproto.ErrUnknownWorker", err)
	}

	// Delivery after reassignment wakes the waiter exactly once.
	if !d.deliver(spec.Digest(), remoteOutcome{}) {
		t.Fatal("deliver reported the cell not outstanding")
	}
	select {
	case out := <-ch:
		if out.err != nil {
			t.Fatalf("waiter got err %v", out.err)
		}
	default:
		t.Fatal("waiter not woken by deliver")
	}
}

// TestDispatchFrozenWorkerBudget is the frozen-worker watchdog: heartbeats
// keep the worker alive, but a lease held past the progress budget is
// revoked anyway and the heartbeat response says so.
func TestDispatchFrozenWorkerBudget(t *testing.T) {
	clk := faultplane.NewClock(time.Unix(1000, 0))
	ttl, maxAge := 10*time.Second, 30*time.Second
	d := testDispatcher(clk, ttl, maxAge)

	a := d.register("frozen", 1)
	b := d.register("healthy", 1)
	spec := testCell(2)
	_, cancel := d.enqueue(spec, "")
	defer cancel()
	if leases, _ := d.lease(context.Background(), a.WorkerID, 1); len(leases) != 1 {
		t.Fatal("worker a did not get the lease")
	}

	// Beat every 5s (inside the TTL) for 25s: worker alive, lease young
	// enough, nothing revoked.
	for i := 0; i < 5; i++ {
		clk.Advance(5 * time.Second)
		revoked, err := d.heartbeat(a.WorkerID, []string{spec.Digest()})
		if err != nil || len(revoked) != 0 {
			t.Fatalf("beat %d: revoked=%v err=%v; want none", i, revoked, err)
		}
		if _, err := d.heartbeat(b.WorkerID, nil); err != nil {
			t.Fatalf("healthy beat: %v", err)
		}
	}
	// 31s after grant: past the budget. The next beat must revoke.
	clk.Advance(6 * time.Second)
	if _, err := d.heartbeat(b.WorkerID, nil); err != nil {
		t.Fatalf("healthy beat: %v", err)
	}
	revoked, err := d.heartbeat(a.WorkerID, []string{spec.Digest()})
	if err != nil || len(revoked) != 1 || revoked[0] != spec.Digest() {
		t.Fatalf("past-budget beat: revoked=%v err=%v; want [%s]", revoked, err, spec.Digest())
	}
	if st := d.stats(); st.Reassigned != 1 || st.RemotePending != 1 || st.LeaseDepth != 0 {
		t.Fatalf("stats after revocation = %+v", st)
	}

	// The healthy worker picks the cell up; the frozen worker, still
	// claiming it active, is told again that it is revoked (stale lease).
	if leases, _ := d.lease(context.Background(), b.WorkerID, 1); len(leases) != 1 || leases[0].Digest != spec.Digest() {
		t.Fatal("healthy worker did not inherit the revoked cell")
	}
	revoked, err = d.heartbeat(a.WorkerID, []string{spec.Digest()})
	if err != nil || len(revoked) != 1 {
		t.Fatalf("stale-active beat: revoked=%v err=%v; want the digest re-reported", revoked, err)
	}

	// Once the cell is delivered it is nobody's: a worker still listing it —
	// its own upload's acknowledgement is in flight — is not told it lost it.
	d.deliver(spec.Digest(), remoteOutcome{})
	for _, id := range []string{a.WorkerID, b.WorkerID} {
		if revoked, err := d.heartbeat(id, []string{spec.Digest()}); err != nil || len(revoked) != 0 {
			t.Fatalf("beat claiming a delivered cell: revoked=%v err=%v; want nothing", revoked, err)
		}
	}
}

// TestDispatchInProcessClientOfLastResort: while a remote worker is live,
// the in-process client's parked lease call is granted nothing, pending
// cells included; when that worker expires, the call is handed the cell
// revoked from it and the pending one, revoked first.
func TestDispatchInProcessClientOfLastResort(t *testing.T) {
	clk := faultplane.NewClock(time.Unix(1000, 0))
	d := testDispatcher(clk, 10*time.Second, time.Hour)
	remote := d.register("only", 1)

	leased, pending := testCell(3), testCell(4)
	chLeased, cancel := d.enqueue(leased, "")
	defer cancel()
	if l, _ := d.lease(context.Background(), remote.WorkerID, 1); len(l) != 1 || l[0].Digest != leased.Digest() {
		t.Fatalf("remote lease = %v, want the first cell", l)
	}
	_, cancel2 := d.enqueue(pending, "")
	defer cancel2()

	c := startLease(context.Background(), d, inProcessID, 4)
	yieldUntil(t, "the in-process call parked", func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.localCall != nil
	})
	clk.Advance(5 * time.Second)
	d.expire()
	select {
	case <-c.done:
		t.Fatalf("in-process call answered %v while a remote worker was live", c.leases)
	case <-time.After(20 * time.Millisecond):
	}
	if st := d.stats(); st.WorkersLive != 1 || st.RemotePending != 1 || st.LeaseDepth != 1 {
		t.Fatalf("with a live remote worker: %+v; want 1 live, 1 pending, 1 leased", st)
	}

	clk.Advance(6 * time.Second) // the remote worker is now 11 s silent
	d.expire()
	leases, err := c.wait(t, "the last remote worker expired")
	if err != nil || len(leases) != 2 || leases[0].Digest != leased.Digest() || leases[1].Digest != pending.Digest() {
		t.Fatalf("in-process call answered %v, %v; want the revoked cell, then the pending one", leases, err)
	}
	st := d.stats()
	if st.WorkersLive != 0 || st.WorkersExpired != 1 || st.WorkersRegistered != 1 || st.Reassigned != 1 ||
		st.LeaseDepth != 2 || st.RemotePending != 0 {
		t.Fatalf("after the expiry: %+v; want the remote worker counted expired and both cells leased in-process", st)
	}
	// The waiter is still waiting: the cell now runs in-process, and its
	// upload resolves it as it would a remote one.
	select {
	case out := <-chLeased:
		t.Fatalf("waiter answered %+v before the in-process upload", out)
	default:
	}
	if !d.deliver(leased.Digest(), remoteOutcome{}) {
		t.Fatal("the reassigned cell was not outstanding")
	}
	if out := <-chLeased; out.err != nil {
		t.Fatalf("waiter got %v", out.err)
	}
	// The in-process client never expires, but its leases have the same
	// progress budget as a remote worker's: after 2 h the cell it still
	// holds, and does not list, is revoked.
	clk.Advance(2 * time.Hour)
	if revoked, err := d.heartbeat(inProcessID, nil); err != nil || len(revoked) != 1 || revoked[0] != pending.Digest() {
		t.Fatalf("in-process heartbeat after 2 h = %v, %v; want its lease revoked", revoked, err)
	}
}

// TestDispatchInProcessBudget: LeaseMaxAge bounds the in-process client's
// leases exactly as it bounds a remote worker's. A lease it holds past the
// budget and still lists as active is revoked at its heartbeat, spends one
// attempt and goes back to the queue, where the in-process call takes it
// again; one it does not list is reassigned without spending an attempt.
func TestDispatchInProcessBudget(t *testing.T) {
	clk := faultplane.NewClock(time.Unix(1000, 0))
	maxAge := 30 * time.Second
	d := testDispatcher(clk, 10*time.Second, maxAge)

	listed, unlisted := testCell(7), testCell(8)
	_, cancelListed := d.enqueue(listed, "")
	_, cancelUnlisted := d.enqueue(unlisted, "")
	if l, err := d.lease(context.Background(), inProcessID, 4); err != nil || len(l) != 2 {
		t.Fatalf("in-process lease = %v, %v; want both cells", l, err)
	}

	clk.Advance(maxAge)
	if revoked, err := d.heartbeat(inProcessID, []string{listed.Digest()}); err != nil || len(revoked) != 0 {
		t.Fatalf("heartbeat at the budget = %v, %v; want nothing revoked", revoked, err)
	}
	clk.Advance(time.Second)
	c := startLease(context.Background(), d, inProcessID, 4)
	yieldUntil(t, "the in-process call parked", func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.localCall != nil
	})
	revoked, err := d.heartbeat(inProcessID, []string{listed.Digest()})
	if err != nil || len(revoked) != 2 {
		t.Fatalf("heartbeat past the budget = %v, %v; want both cells revoked", revoked, err)
	}
	leases, err := c.wait(t, "a revoked cell was pending")
	if err != nil || len(leases) != 1 {
		t.Fatalf("parked in-process call answered %v, %v; want one revoked cell", leases, err)
	}
	if st := d.stats(); st.Reassigned != 2 || st.Retried != 1 || st.LeaseDepth != 1 || st.RemotePending != 1 {
		t.Fatalf("after the revocation: %+v; want 2 reassigned, 1 retried, 1 leased, 1 pending", st)
	}
	if got := cancelListed(); got != 1 {
		t.Fatalf("the listed cell spent %d attempts, want 1", got)
	}
	if got := cancelUnlisted(); got != 0 {
		t.Fatalf("the unlisted cell spent %d attempts, want 0", got)
	}
}

// TestDispatchEnqueueDedup: two jobs containing the same cell share one
// execution — one lease goes out, one delivery wakes both waiters.
func TestDispatchEnqueueDedup(t *testing.T) {
	clk := faultplane.NewClock(time.Unix(1000, 0))
	d := testDispatcher(clk, 10*time.Second, time.Hour)
	w := d.register("w", 2)

	spec := testCell(4)
	ch1, cancel1 := d.enqueue(spec, "")
	ch2, cancel2 := d.enqueue(spec, "")
	defer cancel1()
	defer cancel2()

	leases, _ := d.lease(context.Background(), w.WorkerID, 4)
	if len(leases) != 1 {
		t.Fatalf("%d leases for one deduplicated cell, want 1", len(leases))
	}
	d.deliver(spec.Digest(), remoteOutcome{})
	for i, ch := range []<-chan remoteOutcome{ch1, ch2} {
		select {
		case out := <-ch:
			if out.err != nil {
				t.Fatalf("waiter %d: %v", i, out.err)
			}
		default:
			t.Fatalf("waiter %d not woken", i)
		}
	}
}

// TestDispatchCancelDropsUnleasedCell: a waiter abandoning a pending,
// unleased cell removes it from the queue entirely; abandoning a leased one
// leaves the lease to finish (its upload is still admissible and cached).
func TestDispatchCancelDropsUnleasedCell(t *testing.T) {
	clk := faultplane.NewClock(time.Unix(1000, 0))
	d := testDispatcher(clk, 10*time.Second, time.Hour)
	w := d.register("w", 2)

	pending := testCell(5)
	leased := testCell(6)
	_, cancelLeased := d.enqueue(leased, "")
	_, cancelPending := d.enqueue(pending, "")

	if leases, _ := d.lease(context.Background(), w.WorkerID, 1); len(leases) != 1 || leases[0].Digest != leased.Digest() {
		t.Fatal("expected the first-enqueued cell to be leased")
	}
	cancelPending()
	if d.outstanding(pending.Digest()) {
		t.Fatal("cancelled pending cell still outstanding")
	}
	cancelLeased()
	if !d.outstanding(leased.Digest()) {
		t.Fatal("leased cell dropped while a worker held it")
	}
	if leases := leaseAtBound(t, d, clk, w.WorkerID, 4); len(leases) != 0 {
		t.Fatalf("cancelled cell leased anyway: %v", leases)
	}
}
