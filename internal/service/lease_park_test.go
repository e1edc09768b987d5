package service

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"testing"
	"time"

	"dnc/internal/httpx"
	"dnc/internal/service/faultplane"
	"dnc/internal/service/workerproto"
)

// ---- parked lease calls ----
//
// A lease call with nothing to grant parks in the dispatcher instead of
// answering empty. These tests pin every way out of a park and that each is
// prompt: a fleet whose calls outlive what they wait for strands cells on
// dead connections and holds up a drain.

// leaseCall is one dispatcher.lease call running on its own goroutine.
type leaseCall struct {
	done   chan struct{}
	leases []workerproto.Lease
	err    error
}

func startLease(ctx context.Context, d *dispatcher, workerID string, max int) *leaseCall {
	c := &leaseCall{done: make(chan struct{})}
	go func() {
		defer close(c.done)
		c.leases, c.err = d.lease(ctx, workerID, max)
	}()
	return c
}

// wait returns the call's answer, failing the test if it stays parked.
func (c *leaseCall) wait(t *testing.T, what string) ([]workerproto.Lease, error) {
	t.Helper()
	select {
	case <-c.done:
		return c.leases, c.err
	case <-time.After(5 * time.Second):
		t.Fatalf("lease call still parked: %s", what)
		return nil, nil
	}
}

// yieldUntil waits for a condition that other goroutines are about to make
// true without sleeping between looks: a parked call settles in microseconds,
// and the property test waits for one at most steps.
func yieldUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// waitParked blocks until exactly n lease calls are parked.
func waitParked(t *testing.T, d *dispatcher, n int) {
	t.Helper()
	yieldUntil(t, "lease calls parked", func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return len(d.parked) == n
	})
}

// toBound sees a parked call out to the park bound on the fake clock and
// returns the grant it ends with.
func (c *leaseCall) toBound(t *testing.T, d *dispatcher, clk *faultplane.Clock) []workerproto.Lease {
	t.Helper()
	clk.Advance(d.heartbeatEvery())
	d.expire() // the server's sweep, by hand
	leases, err := c.wait(t, "the fake clock passed the bound")
	if err != nil {
		t.Fatalf("lease at the bound: %v", err)
	}
	return leases
}

// leaseAtBound is a lease call that finds nothing pending, parks, and is
// seen out to its bound.
func leaseAtBound(t *testing.T, d *dispatcher, clk *faultplane.Clock, workerID string, max int) []workerproto.Lease {
	t.Helper()
	c := startLease(context.Background(), d, workerID, max)
	waitParked(t, d, 1)
	return c.toBound(t, d, clk)
}

func TestLeaseParksAndWakes(t *testing.T) {
	newPlane := func() (*faultplane.Clock, *dispatcher) {
		clk := faultplane.NewClock(time.Unix(1000, 0))
		return clk, testDispatcher(clk, 9*time.Second, 30*time.Second)
	}

	t.Run("enqueue", func(t *testing.T) {
		_, d := newPlane()
		w := d.register("w", 1)
		c := startLease(context.Background(), d, w.WorkerID, 1)
		waitParked(t, d, 1)
		spec := testCell(1)
		_, cancel := d.enqueue(spec, "")
		defer cancel()
		leases, err := c.wait(t, "a cell was enqueued")
		if err != nil || len(leases) != 1 || leases[0].Digest != spec.Digest() {
			t.Fatalf("woken lease = %v, %v; want the enqueued cell", leases, err)
		}
	})

	t.Run("cells go to the longest-parked call first", func(t *testing.T) {
		_, d := newPlane()
		a, b := d.register("a", 2), d.register("b", 2)
		ca := startLease(context.Background(), d, a.WorkerID, 2)
		waitParked(t, d, 1)
		cb := startLease(context.Background(), d, b.WorkerID, 2)
		waitParked(t, d, 2)
		first, second := testCell(1), testCell(2)
		_, cancel := d.enqueue(first, "")
		defer cancel()
		la, _ := ca.wait(t, "a cell was enqueued and it had waited longest")
		if len(la) != 1 || la[0].Digest != first.Digest() {
			t.Fatalf("longest-parked call got %v, want the first cell", la)
		}
		waitParked(t, d, 1) // one cell woke one call
		_, cancel2 := d.enqueue(second, "")
		defer cancel2()
		lb, _ := cb.wait(t, "a second cell was enqueued")
		if len(lb) != 1 || lb[0].Digest != second.Digest() {
			t.Fatalf("second call got %v, want the second cell", lb)
		}
	})

	t.Run("revoked lease returning to pending", func(t *testing.T) {
		// A 1 s progress budget inside a 3 s park bound: the revocation, not
		// the bound, is what ends the park.
		clk := faultplane.NewClock(time.Unix(1000, 0))
		d := testDispatcher(clk, 9*time.Second, time.Second)
		frozen, healthy := d.register("frozen", 1), d.register("healthy", 1)
		spec := testCell(1)
		_, cancel := d.enqueue(spec, "")
		defer cancel()
		if l, _ := d.lease(context.Background(), frozen.WorkerID, 1); len(l) != 1 {
			t.Fatal("the frozen worker did not get the lease")
		}
		c := startLease(context.Background(), d, healthy.WorkerID, 1)
		waitParked(t, d, 1)
		clk.Advance(2 * time.Second)
		if revoked, err := d.heartbeat(frozen.WorkerID, nil); err != nil || len(revoked) != 1 {
			t.Fatalf("past-budget beat: revoked=%v err=%v; want the cell", revoked, err)
		}
		leases, err := c.wait(t, "the frozen worker's lease was revoked")
		if err != nil || len(leases) != 1 || leases[0].Digest != spec.Digest() {
			t.Fatalf("woken lease = %v, %v; want the revoked cell", leases, err)
		}
	})

	t.Run("fake-clock bound with an empty grant", func(t *testing.T) {
		clk, d := newPlane()
		w := d.register("w", 1)
		c := startLease(context.Background(), d, w.WorkerID, 1)
		waitParked(t, d, 1)
		clk.Advance(d.heartbeatEvery() - time.Millisecond)
		d.expire()
		select {
		case <-c.done:
			t.Fatal("lease call returned before its bound")
		case <-time.After(20 * time.Millisecond):
		}
		clk.Advance(time.Millisecond)
		d.expire()
		if leases, err := c.wait(t, "the bound passed"); err != nil || len(leases) != 0 {
			t.Fatalf("lease at the bound = %v, %v; want an empty grant", leases, err)
		}
		// The return renewed the worker: a full TTL from the bound it is live.
		clk.Advance(9 * time.Second)
		d.expire()
		if st := d.stats(); st.WorkersLive != 1 || st.WorkersExpired != 0 {
			t.Fatal("worker expired a TTL after its lease call returned: the return did not renew it")
		}
	})

	t.Run("request context cancelled", func(t *testing.T) {
		_, d := newPlane()
		w := d.register("w", 1)
		ctx, cancel := context.WithCancel(context.Background())
		c := startLease(ctx, d, w.WorkerID, 1)
		waitParked(t, d, 1)
		cancel()
		if leases, err := c.wait(t, "its context was cancelled"); err != nil || len(leases) != 0 {
			t.Fatalf("cancelled lease = %v, %v; want nothing", leases, err)
		}
		// A caller that has gone must not be granted what arrives later, or
		// pending cells would be stranded on it for a TTL.
		spec := testCell(1)
		_, cancelCell := d.enqueue(spec, "")
		defer cancelCell()
		if leases, _ := d.lease(ctx, w.WorkerID, 1); len(leases) != 0 {
			t.Fatalf("a cancelled call was granted %v", leases)
		}
		if st := d.stats(); st.RemotePending != 1 || st.LeaseDepth != 0 {
			t.Fatalf("after a cancelled call: %+v; want the cell still pending", st)
		}
	})

	t.Run("a cell handed to a call as its caller leaves goes back to the head", func(t *testing.T) {
		_, d := newPlane()
		gone, next := d.register("gone", 1), d.register("next", 1)
		ctx, cancel := context.WithCancel(context.Background())
		c := startLease(ctx, d, gone.WorkerID, 1)
		waitParked(t, d, 1)
		queued, late := testCell(1), testCell(2)
		// Under the table's lock, so that the call can act on neither before
		// both have happened: its caller leaves, and a cell arrives for it.
		d.mu.Lock()
		cancel()
		for _, spec := range []workerproto.CellSpec{queued, late} {
			cell := &remoteCell{digest: spec.Digest(), spec: spec}
			d.byCell[cell.digest] = cell
			d.pending = append(d.pending, cell)
		}
		d.offerLocked()
		if len(d.parked) != 0 || len(d.pending) != 1 {
			t.Fatalf("offer left %d calls parked and %d cells pending, want the first cell handed over", len(d.parked), len(d.pending))
		}
		d.mu.Unlock()
		if leases, err := c.wait(t, "its caller left"); err != nil || len(leases) != 0 {
			t.Fatalf("a call whose caller left returned %v, %v", leases, err)
		}
		if st := d.stats(); st.LeaseDepth != 0 || st.RemotePending != 2 || st.Reassigned != 1 {
			t.Fatalf("after the hand-back: %+v; want nothing leased, both cells pending, one reassignment", st)
		}
		leases, _ := d.lease(context.Background(), next.WorkerID, 1)
		if len(leases) != 1 || leases[0].Digest != queued.Digest() {
			t.Fatalf("next lease = %v, want the handed-back cell from the head of the queue", leases)
		}
	})

	t.Run("expired worker woken from a park gets 404", func(t *testing.T) {
		clk, d := newPlane()
		w := d.register("w", 1)
		c := startLease(context.Background(), d, w.WorkerID, 1)
		waitParked(t, d, 1)
		clk.Advance(10 * time.Second) // past the TTL: the sweep reaps it, and must wake it
		d.expire()
		if _, err := c.wait(t, "its worker was reaped"); !errors.Is(err, workerproto.ErrUnknownWorker) {
			t.Fatalf("lease of a reaped worker = %v, want workerproto.ErrUnknownWorker", err)
		}
	})
}

// TestLeaseEndpointParks drives the park over HTTP on a real server: the
// call is held, ends on new work, ends at once with Draining on a drain, and
// a client that leaves is noticed — its call does not stay to be granted a
// cell nobody will run.
func TestLeaseEndpointParks(t *testing.T) {
	register := func(t *testing.T, e *testEnv) workerproto.RegisterResponse {
		t.Helper()
		var reg workerproto.RegisterResponse
		if _, err := (&httpx.RetryClient{}).PostJSON(context.Background(), e.base+"/v1/workers/register",
			workerproto.RegisterRequest{Name: "t", Capacity: 1}, &reg); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	type answer struct {
		resp   workerproto.LeaseResponse
		status int
		err    error
	}
	lease := func(ctx context.Context, e *testEnv, id string) <-chan answer {
		out := make(chan answer, 1)
		go func() {
			var a answer
			a.status, a.err = (&httpx.RetryClient{}).PostJSON(ctx, e.base+"/v1/workers/"+id+"/lease",
				workerproto.LeaseRequest{Max: 1}, &a.resp)
			out <- a
		}()
		return out
	}
	recv := func(t *testing.T, ch <-chan answer, what string) answer {
		t.Helper()
		select {
		case a := <-ch:
			return a
		case <-time.After(5 * time.Second):
			t.Fatalf("lease request still held: %s", what)
			return answer{}
		}
	}
	// A minute's TTL puts the park bound at 20 s: nothing below may wait it out.
	hook := func(c *Config) { c.LeaseTTL = time.Minute; c.RunCell = fakeRunCell }

	t.Run("work", func(t *testing.T) {
		e := newTestEnv(t, hook)
		reg := register(t, e)
		ch := lease(context.Background(), e, reg.WorkerID)
		waitParked(t, e.srv.dispatch, 1)
		spec := testCell(1)
		_, cancel := e.srv.dispatch.enqueue(spec, "")
		defer cancel()
		a := recv(t, ch, "a cell was enqueued")
		if a.err != nil || len(a.resp.Leases) != 1 || a.resp.Leases[0].Digest != spec.Digest() || a.resp.Draining {
			t.Fatalf("lease answer = %+v (%v); want the enqueued cell", a.resp, a.err)
		}
		m, _ := fetchMetrics(t, e)
		if m["dnc_lease_wait_seconds_count"] != 1 {
			t.Fatalf("dnc_lease_wait_seconds_count = %v after one lease call, want 1", m["dnc_lease_wait_seconds_count"])
		}
	})

	t.Run("drain", func(t *testing.T) {
		e := newTestEnv(t, hook)
		reg := register(t, e)
		ch := lease(context.Background(), e, reg.WorkerID)
		waitParked(t, e.srv.dispatch, 1)
		start := time.Now()
		e.drain()
		a := recv(t, ch, "the server drained")
		if a.err != nil || !a.resp.Draining || len(a.resp.Leases) != 0 {
			t.Fatalf("lease answer across a drain = %+v (%v); want Draining and no leases", a.resp, a.err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("drain with a parked lease call took %v", d)
		}
	})

	t.Run("client gone", func(t *testing.T) {
		e := newTestEnv(t, hook)
		reg := register(t, e)
		ctx, cancel := context.WithCancel(context.Background())
		ch := lease(ctx, e, reg.WorkerID)
		waitParked(t, e.srv.dispatch, 1)
		cancel()
		if a := recv(t, ch, "the request was cancelled"); a.err == nil {
			t.Fatalf("cancelled request answered %+v", a.resp)
		}
		waitParked(t, e.srv.dispatch, 0) // the server noticed, with no drain to tell it
		_, cancelCell := e.srv.dispatch.enqueue(testCell(1), "")
		defer cancelCell()
		if st := e.srv.Stats(); st.RemotePending != 1 || st.LeaseDepth != 0 {
			t.Fatalf("after the client left: pending=%d leased=%d; want the cell pending, not granted to a dead call",
				st.RemotePending, st.LeaseDepth)
		}
	})

	t.Run("unknown worker is not held", func(t *testing.T) {
		e := newTestEnv(t, hook)
		a := recv(t, lease(context.Background(), e, "w999999"), "the worker is unknown")
		if a.status != http.StatusNotFound {
			t.Fatalf("lease for an unknown worker = %d (%v), want 404", a.status, a.err)
		}
	})
}
