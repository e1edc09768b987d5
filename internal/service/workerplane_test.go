package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnc/internal/httpx"
	"dnc/internal/service/faultplane"
	"dnc/internal/service/worker"
	"dnc/internal/service/workerproto"
	"dnc/internal/sim"
	"dnc/internal/sim/runner"
)

// ---- worker-plane integration ----
//
// These tests run real worker.Run loops (in-process goroutines) against a
// real server over HTTP, with real (tiny) simulations, so the property under
// test is the acceptance property itself: results computed by remote
// workers are bit-identical to local execution, and no failure mode loses
// or double-admits a cell.

// startWorker runs a worker loop until the test ends (or stop is called).
func (e *testEnv) startWorker(o worker.Options) (stop func()) {
	e.t.Helper()
	if o.Server == "" {
		o.Server = e.base
	}
	if o.PollInterval == 0 {
		o.PollInterval = 10 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		err := worker.Run(ctx, o)
		if err != nil && !errors.Is(err, context.Canceled) {
			e.t.Errorf("[%s] worker %s: %v", e.id, o.Name, err)
		}
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}
	e.t.Cleanup(stop)
	return stop
}

// localDigests computes, fresh and in-process, the canonical result digest
// of every cell in the spec — the bit-exactness reference the remote
// results must match.
func localDigests(t *testing.T, spec Spec) map[string]string {
	t.Helper()
	want := make(map[string]string)
	for _, c := range spec.normalized().cells() {
		res, err := sim.RunChecked(context.Background(), c.RunConfig())
		if err != nil {
			t.Fatalf("local reference run for %s: %v", c.Key(), err)
		}
		want[c.Digest()] = ResultDigest(runner.NewResultJSON(res))
	}
	return want
}

// checkOutcomes asserts every streamed outcome digest-matches the local
// reference and counts how many were remotely simulated.
func checkOutcomes(t *testing.T, e *testEnv, jobID string, want map[string]string) {
	t.Helper()
	lines := e.streamResults(jobID)
	if len(lines) != len(want) {
		t.Fatalf("streamed %d outcomes, want %d", len(lines), len(want))
	}
	for _, l := range lines {
		wd, ok := want[l.Digest]
		if !ok {
			t.Fatalf("outcome for unexpected cell %s", l.Digest)
		}
		if l.ResultDigest != wd {
			t.Errorf("cell %s: result digest %s, want %s (not bit-identical to local run)", l.Key, l.ResultDigest, wd)
		}
		if l.Result == nil || ResultDigest(l.Result) != wd {
			t.Errorf("cell %s: streamed result body does not match its digest", l.Key)
		}
	}
}

func TestWorkerPlaneRemoteExecution(t *testing.T) {
	e := newTestEnv(t, func(c *Config) {
		c.LeaseTTL = 2 * time.Second
	})
	e.startWorker(worker.Options{Name: "w1", Capacity: 2})

	waitFor(t, "worker registration", func() bool {
		return e.srv.Stats().WorkersLive == 1
	})

	spec := smallSpec()
	spec.Seeds = []int64{1, 2}
	want := localDigests(t, spec)

	st := e.submit(spec)
	if fin := e.waitJob(st.ID); fin.State != JobDone {
		t.Fatalf("job state %s, want done", fin.State)
	}
	checkOutcomes(t, e, st.ID, want)

	stats := e.srv.Stats()
	if stats.RemoteAdmitted != 2 {
		t.Fatalf("RemoteAdmitted = %d, want 2 (both cells executed remotely)", stats.RemoteAdmitted)
	}
	if stats.RemoteRejected != 0 {
		t.Fatalf("RemoteRejected = %d, want 0", stats.RemoteRejected)
	}
	if m, _ := fetchMetrics(t, e); m["dnc_cells_admitted_total"] != 2 {
		t.Fatalf("dnc_cells_admitted_total = %v, want 2 (remotely executed cells count)", m["dnc_cells_admitted_total"])
	}

	// Worker counts are on /metrics for operators.
	if m, _ := fetchMetrics(t, e); m["dnc_workers_registered_total"] != 1 || m["dnc_workers_live"] != 1 {
		t.Fatalf("worker series = %v registered / %v live, want 1/1", m["dnc_workers_registered_total"], m["dnc_workers_live"])
	}
}

// TestWorkerlessJobIsLeasedInProcess: with no remote worker registered,
// every cell is a lease of the in-process client, admitted by completeCell
// like an upload — its attempts carry the client's worker ID, the phases are
// conserved, and remote_admitted counts every simulated cell — while the
// worker counters stay at zero.
func TestWorkerlessJobIsLeasedInProcess(t *testing.T) {
	e := newTestEnv(t)
	spec := smallSpec()
	spec.Designs = []string{"baseline", "NL"}
	spec.Seeds = []int64{1, 2}
	st := e.submit(spec)
	fin := e.waitJob(st.ID)
	if fin.State != JobDone || fin.Simulated != 4 {
		t.Fatalf("job = %s with %d simulated, want done with 4", fin.State, fin.Simulated)
	}
	checkOutcomes(t, e, st.ID, localDigests(t, spec))
	stats := e.srv.Stats()
	if stats.RemoteAdmitted != uint64(fin.Simulated) || stats.RemoteRejected != 0 {
		t.Fatalf("remote_admitted = %d, rejected = %d; want the %d simulated cells admitted from uploads",
			stats.RemoteAdmitted, stats.RemoteRejected, fin.Simulated)
	}
	if stats.WorkersRegistered != 0 || stats.WorkersLive != 0 {
		t.Fatalf("worker counters = %d registered / %d live, want the in-process client left out",
			stats.WorkersRegistered, stats.WorkersLive)
	}
	snap := checkTraceConservation(t, e, st.ID, 4)
	for _, c := range snap.Cells {
		if len(c.Attempts) != 1 || c.Attempts[0].Worker != inProcessID || c.Attempts[0].Outcome != "admitted" {
			t.Fatalf("cell %s attempts %+v, want one admitted attempt on %q", c.SpanID, c.Attempts, inProcessID)
		}
	}
	attempts := 0
	for _, ev := range fetchPerfetto(t, e, st.ID) {
		if args, _ := ev["args"].(map[string]any); args != nil && args["worker"] != nil {
			if args["worker"] != inProcessID {
				t.Fatalf("trace attempt on worker %v, want %q", args["worker"], inProcessID)
			}
			attempts++
		}
	}
	if attempts != 4 {
		t.Fatalf("trace holds %d attempt spans, want 4", attempts)
	}
}

// TestRefusedInProcessUploadFailsTheCell: the in-process client holds its
// leases for good, so an upload admission refuses fails the cell instead of
// leaving the job waiting on it.
func TestRefusedInProcessUploadFailsTheCell(t *testing.T) {
	e := newTestEnv(t, func(c *Config) {
		c.Retries = 0
		c.RunCell = func(context.Context, workerproto.CellSpec) (*runner.ResultJSON, error) {
			return &runner.ResultJSON{Workload: "not-the-spec's"}, nil
		}
	})
	fin := e.waitJob(e.submit(smallSpec()).ID)
	if fin.State != JobDone || fin.Failed != 1 || fin.Simulated != 0 {
		t.Fatalf("job = %s with %d failed / %d simulated, want done with the cell failed", fin.State, fin.Failed, fin.Simulated)
	}
	if st := e.srv.Stats(); st.RemoteRejected != 1 || st.RemoteAdmitted != 0 || st.LeaseDepth != 0 {
		t.Fatalf("rejected/admitted/leased = %d/%d/%d, want 1/0/0", st.RemoteRejected, st.RemoteAdmitted, st.LeaseDepth)
	}
}

// TestInProcessRunsHaveTheLeaseBudget: with no remote worker, a cell whose
// run never ends is revoked by the in-process client's own heartbeat once
// it is held past LeaseMaxAge, like a frozen remote worker's; each
// revocation spends an attempt, and out of retries the cell fails for its
// job with the budget error, not dead-lettered.
func TestInProcessRunsHaveTheLeaseBudget(t *testing.T) {
	var runs atomic.Int64
	e := newTestEnv(t, func(c *Config) {
		c.LeaseTTL, c.LeaseMaxAge, c.Retries = 300*time.Millisecond, 200*time.Millisecond, 1
		c.RunCell = func(ctx context.Context, _ workerproto.CellSpec) (*runner.ResultJSON, error) {
			runs.Add(1)
			<-ctx.Done() // only a revocation (or the drain) ends it
			return nil, ctx.Err()
		}
	})
	fin := e.waitJob(e.submit(smallSpec()).ID)
	lines := e.streamResults(fin.ID)
	if len(lines) != 1 {
		t.Fatalf("job = %s with %d outcomes, want 1", fin.State, len(lines))
	}
	if o := lines[0].Outcome; o.Status != OutcomeFailed || o.Attempts != 2 || !strings.Contains(o.Error, errLeaseBudget.Error()) {
		t.Fatalf("outcome = %+v, want failed after 2 attempts with the budget error", o)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("the in-process client ran the cell %d times, want 2", got)
	}
	if dls := e.srv.DeadLetters(); len(dls) != 0 {
		t.Fatalf("a budget revocation was dead-lettered: %+v", dls)
	}
}

// TestWorkerPlaneLastWorkerDiesMidJob: the only remote worker leases every
// cell of a job and stops without uploading any. After its TTL the server
// reaps it and the cells finish on the in-process client, bit-identical and
// each admitted once.
func TestWorkerPlaneLastWorkerDiesMidJob(t *testing.T) {
	e := newTestEnv(t, func(c *Config) {
		c.LeaseTTL = 600 * time.Millisecond
		c.CellJobs = 4
	})
	var held atomic.Int64
	stop := e.startWorker(worker.Options{Name: "doomed", Capacity: 4,
		Run: func(ctx context.Context, _ workerproto.CellSpec) (*runner.ResultJSON, error) {
			held.Add(1)
			<-ctx.Done()
			return nil, ctx.Err()
		}})
	waitFor(t, "worker registration", func() bool { return e.srv.Stats().WorkersLive == 1 })

	spec := smallSpec()
	spec.Seeds = []int64{1, 2, 3}
	want := localDigests(t, spec)
	st := e.submit(spec)
	waitFor(t, "the worker running every cell", func() bool { return held.Load() == 3 })
	if got := e.srv.Stats().LeaseDepth; got != 3 {
		t.Fatalf("lease_depth = %d with the remote worker holding every cell, want 3", got)
	}
	stop()

	if fin := e.waitJob(st.ID); fin.State != JobDone || fin.Simulated != 3 {
		t.Fatalf("job = %s with %d simulated, want done with 3", fin.State, fin.Simulated)
	}
	checkOutcomes(t, e, st.ID, want)
	stats := e.srv.Stats()
	if stats.WorkersExpired != 1 || stats.Reassigned != 3 {
		t.Fatalf("expired = %d, reassigned = %d; want the worker reaped and its 3 cells reassigned",
			stats.WorkersExpired, stats.Reassigned)
	}
	if stats.RemoteAdmitted != 3 || stats.RemoteDuplicates != 0 || stats.RemoteRejected != 0 {
		t.Fatalf("admitted/duplicates/rejected = %d/%d/%d, want 3/0/0",
			stats.RemoteAdmitted, stats.RemoteDuplicates, stats.RemoteRejected)
	}
	if keys := cacheKeys(t, e.dataDir); len(keys) != 3 {
		t.Fatalf("cache.jsonl holds %d lines, want one per cell", len(keys))
	}
	snap := checkTraceConservation(t, e, st.ID, 3)
	for _, c := range snap.Cells {
		if len(c.Attempts) != 2 || c.Attempts[0].Worker == inProcessID || c.Attempts[0].Outcome != "revoked" ||
			c.Attempts[1].Worker != inProcessID || c.Attempts[1].Outcome != "admitted" {
			t.Fatalf("cell %s attempts %+v, want revoked on the remote worker, then admitted in-process", c.SpanID, c.Attempts)
		}
	}
}

// gateTransport fails every request while closed — a deterministic network
// partition between one worker and the server.
type gateTransport struct {
	blocked atomic.Bool
}

func (g *gateTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if g.blocked.Load() {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errors.New("gate: partitioned")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestWorkerReregistersAfterPartition: a worker partitioned past its TTL is
// reaped; when the network heals it must notice the 404 and re-register,
// and the plane must end up healthy again.
func TestWorkerReregistersAfterPartition(t *testing.T) {
	e := newTestEnv(t, func(c *Config) {
		c.LeaseTTL = 400 * time.Millisecond
		c.RunCell = fakeRunCell // job execution is not under test here
	})
	gate := &gateTransport{}
	e.startWorker(worker.Options{
		Name:     "flaky",
		Capacity: 1,
		Client:   &httpx.RetryClient{C: &http.Client{Transport: gate}, Retries: 0},
	})

	waitFor(t, "initial registration", func() bool { return e.srv.Stats().WorkersLive == 1 })
	gate.blocked.Store(true)
	waitFor(t, "partitioned worker reaped", func() bool {
		st := e.srv.Stats()
		return st.WorkersLive == 0 && st.WorkersExpired == 1
	})
	gate.blocked.Store(false)
	waitFor(t, "re-registration", func() bool {
		st := e.srv.Stats()
		return st.WorkersLive == 1 && st.WorkersRegistered == 2
	})
}

// TestWorkerPlaneFrozenWorkerRecovery: a worker that completes one cell and
// then wedges — heartbeats flowing, no progress — holds its leases until
// the per-lease budget expires; the healthy worker inherits the cells and
// the sweep still produces bit-identical results with no cell admitted
// twice.
func TestWorkerPlaneFrozenWorkerRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("frozen-worker recovery waits out a real lease budget")
	}
	e := newTestEnv(t, func(c *Config) {
		c.LeaseTTL = 5 * time.Second
		c.LeaseMaxAge = 1 * time.Second
		c.LeaseBatchMax = 1 // spread cells across both workers
	})
	e.startWorker(worker.Options{Name: "frozen", Capacity: 1, FreezeAfter: 1})
	e.startWorker(worker.Options{Name: "healthy", Capacity: 1})
	waitFor(t, "both workers live", func() bool { return e.srv.Stats().WorkersLive == 2 })

	// Eight cells: the frozen worker wedges on its second, and a healthy
	// worker that is handed its next cell the moment a run ends must not be
	// able to finish the sweep while the frozen one is still on its first.
	spec := smallSpec()
	spec.Seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}
	want := localDigests(t, spec)

	js := e.submit(spec)
	if fin := e.waitJob(js.ID); fin.State != JobDone {
		t.Fatalf("job state %s, want done", fin.State)
	}
	checkOutcomes(t, e, js.ID, want)

	st := e.srv.Stats()
	if st.RemoteAdmitted != uint64(len(want)) {
		t.Fatalf("RemoteAdmitted = %d, want %d (each cell admitted exactly once)", st.RemoteAdmitted, len(want))
	}
	if st.Reassigned == 0 {
		t.Fatal("Reassigned = 0: the frozen worker's lease was never revoked")
	}
}

// TestWorkerPlaneTransientRetries: a remote worker reports a transient
// failure (its run timed out) for every attempt of a cell but the last the
// server's Retries allow. The dispatcher sends the cell straight back to the
// lease queue each time, the last attempt is admitted bit-identical, and the
// outcome counts every attempt. One more transient failure than that fails
// the cell for its job without dead-lettering it.
func TestWorkerPlaneTransientRetries(t *testing.T) {
	const retries = 2
	for _, tc := range []struct {
		name     string
		failures int
	}{
		{"admitted on the last attempt", retries},
		{"out of attempts", retries + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEnv(t, func(c *Config) {
				c.LeaseTTL = 2 * time.Second
				c.Retries = retries
			})
			var runs atomic.Int64
			e.startWorker(worker.Options{Name: "slow", Capacity: 1,
				Run: func(ctx context.Context, spec workerproto.CellSpec) (*runner.ResultJSON, error) {
					if runs.Add(1) <= int64(tc.failures) {
						return nil, fmt.Errorf("host overloaded: %w", context.DeadlineExceeded)
					}
					res, err := sim.RunChecked(ctx, spec.RunConfig())
					if err != nil {
						return nil, err
					}
					return runner.NewResultJSON(res), nil
				}})
			waitFor(t, "worker registration", func() bool { return e.srv.Stats().WorkersLive == 1 })

			spec := smallSpec()
			st := e.submit(spec)
			fin := e.waitJob(st.ID)
			lines := e.streamResults(st.ID)
			if fin.State != JobDone || len(lines) != 1 {
				t.Fatalf("job = %s with %d outcomes, want done with 1", fin.State, len(lines))
			}
			if m, _ := fetchMetrics(t, e); m["dnc_cell_retries_total"] != retries {
				t.Fatalf("dnc_cell_retries_total = %v, want %d", m["dnc_cell_retries_total"], retries)
			}
			if got := runs.Load(); got != retries+1 {
				t.Fatalf("the worker ran the cell %d times, want %d", got, retries+1)
			}
			o := lines[0].Outcome
			if o.Attempts != retries+1 {
				t.Fatalf("outcome attempts = %d, want Retries+1 = %d", o.Attempts, retries+1)
			}
			if tc.failures == retries {
				if o.Status != OutcomeSimulated {
					t.Fatalf("outcome = %+v, want simulated", o)
				}
				checkOutcomes(t, e, st.ID, localDigests(t, spec))
				return
			}
			if o.Status != OutcomeFailed || !strings.Contains(o.Error, "host overloaded") {
				t.Fatalf("outcome = %+v, want failed with the worker's error", o)
			}
			if dls := e.srv.DeadLetters(); len(dls) != 0 {
				t.Fatalf("dead letters = %+v, want none: transient failures are not poison", dls)
			}
		})
	}
}

// TestWorkerPlaneFaultChaos drives a two-worker sweep through a seeded
// fault plane — dropped, duplicated, delayed, and torn requests on every
// API call — and requires the distributed answer to be bit-identical to
// local execution with every cell admitted exactly once.
func TestWorkerPlaneFaultChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("fault chaos runs real sweeps through an unreliable network")
	}
	e := newTestEnv(t, func(c *Config) {
		c.LeaseTTL = 2 * time.Second
		c.LeaseMaxAge = 3 * time.Second
		c.LeaseBatchMax = 2
	})
	for i := 0; i < 2; i++ {
		tr := faultplane.NewTransport(int64(1000+i), nil, faultplane.Faults{
			Drop:     0.15,
			Dup:      0.15,
			Tear:     0.10,
			Delay:    0.25,
			MaxDelay: 25 * time.Millisecond,
		})
		e.startWorker(worker.Options{
			Name:     fmt.Sprintf("chaotic-%d", i),
			Capacity: 2,
			Client:   &httpx.RetryClient{C: &http.Client{Transport: tr}, Retries: 6, Sleep: shortRetryWait},
		})
	}
	waitFor(t, "workers live", func() bool { return e.srv.Stats().WorkersLive >= 1 })

	spec := smallSpec()
	spec.Seeds = []int64{1, 2, 3, 4, 5}
	want := localDigests(t, spec)

	js := e.submit(spec)
	if fin := e.waitJob(js.ID); fin.State != JobDone {
		t.Fatalf("job state %s, want done", fin.State)
	}
	checkOutcomes(t, e, js.ID, want)

	st := e.srv.Stats()
	if st.RemoteAdmitted > uint64(len(want)) {
		t.Fatalf("RemoteAdmitted = %d > %d cells: a cell was admitted twice", st.RemoteAdmitted, len(want))
	}
	t.Logf("chaos run: admitted=%d dup=%d rejected=%d reassigned=%d",
		st.RemoteAdmitted, st.RemoteDuplicates, st.RemoteRejected, st.Reassigned)
}

// shortRetryWait is a RetryClient Sleep that waits a fixed 5 ms, whatever
// delay the client's backoff asks for, so retries through a lossy transport
// stay quick.
func shortRetryWait(ctx context.Context, _ time.Duration) error {
	t := time.NewTimer(5 * time.Millisecond)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TestCompleteAdmissionVerification exercises the upload admission gate
// over raw HTTP: digest mismatches and identity mismatches are refused,
// unsolicited uploads are 404, duplicates are idempotent, and a
// non-identical duplicate is a 409 determinism violation.
func TestCompleteAdmissionVerification(t *testing.T) {
	e := newTestEnv(t, func(c *Config) { c.LeaseTTL = time.Minute })
	rc := &httpx.RetryClient{}
	ctx := context.Background()

	var reg workerproto.RegisterResponse
	if _, err := rc.PostJSON(ctx, e.base+"/v1/workers/register",
		workerproto.RegisterRequest{Name: "t", Capacity: 1}, &reg); err != nil {
		t.Fatal(err)
	}

	spec := workerproto.CellSpec{Workload: "Web-Frontend", Design: "baseline", Cores: 2, Warm: 600, Measure: 600, Seed: 1}
	good := &runner.ResultJSON{Workload: spec.Workload, Design: spec.Design}

	// Unsolicited upload: the cell was never enqueued → 404, nothing cached.
	code, err := rc.PostJSON(ctx, e.base+"/v1/cells/"+spec.Digest()+"/complete",
		workerproto.CompleteRequest{WorkerID: reg.WorkerID, Spec: spec, Result: good}, nil)
	if code != http.StatusNotFound {
		t.Fatalf("unsolicited upload = %d (%v), want 404", code, err)
	}

	// Wrong address: spec digest != URL digest → 400.
	other := spec
	other.Seed = 99
	code, _ = rc.PostJSON(ctx, e.base+"/v1/cells/"+other.Digest()+"/complete",
		workerproto.CompleteRequest{WorkerID: reg.WorkerID, Spec: spec, Result: good}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("mismatched digest upload = %d, want 400", code)
	}

	// Result identity fields disagreeing with the spec → 400.
	bad := &runner.ResultJSON{Workload: "OLTP-DB-A", Design: spec.Design}
	ch, cancel := e.srv.dispatch.enqueue(spec, "")
	defer cancel()
	code, _ = rc.PostJSON(ctx, e.base+"/v1/cells/"+spec.Digest()+"/complete",
		workerproto.CompleteRequest{WorkerID: reg.WorkerID, Spec: spec, Result: bad}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("identity-mismatched upload = %d, want 400", code)
	}

	// A legitimate upload for the outstanding cell admits and wakes the waiter.
	var resp workerproto.CompleteResponse
	code, err = rc.PostJSON(ctx, e.base+"/v1/cells/"+spec.Digest()+"/complete",
		workerproto.CompleteRequest{WorkerID: reg.WorkerID, Spec: spec, Result: good}, &resp)
	if err != nil || code != http.StatusOK || resp.Status != workerproto.StatusAdmitted {
		t.Fatalf("admit = %d %q (%v), want 200 %q", code, resp.Status, err, workerproto.StatusAdmitted)
	}
	select {
	case out := <-ch:
		if out.err != nil {
			t.Fatalf("waiter error: %v", out.err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter not woken by admission")
	}

	// At-least-once redelivery of the identical result: idempotent duplicate.
	code, err = rc.PostJSON(ctx, e.base+"/v1/cells/"+spec.Digest()+"/complete",
		workerproto.CompleteRequest{WorkerID: reg.WorkerID, Spec: spec, Result: good}, &resp)
	if err != nil || code != http.StatusOK || resp.Status != workerproto.StatusDuplicate {
		t.Fatalf("duplicate = %d %q (%v), want 200 %q", code, resp.Status, err, workerproto.StatusDuplicate)
	}

	// Same cell, different bytes: a determinism violation must be refused.
	forged := &runner.ResultJSON{Workload: spec.Workload, Design: spec.Design, NoCFlits: 7}
	code, _ = rc.PostJSON(ctx, e.base+"/v1/cells/"+spec.Digest()+"/complete",
		workerproto.CompleteRequest{WorkerID: reg.WorkerID, Spec: spec, Result: forged}, nil)
	if code != http.StatusConflict {
		t.Fatalf("non-identical duplicate = %d, want 409", code)
	}

	st := e.srv.Stats()
	if st.RemoteAdmitted != 1 || st.RemoteDuplicates != 1 || st.RemoteRejected != 4 {
		t.Fatalf("admission counters = %+v, want 1 admitted / 1 duplicate / 4 rejected", st.dispatchStats)
	}
}

// FuzzCellComplete throws arbitrary completion uploads at POST
// /v1/cells/{digest}/complete on a server with two cells outstanding. A body
// that does not decode is answered 400, nothing is answered 5xx, an upload is
// accepted (200) only under the digest its spec hashes to, and the cache
// never holds a cell under a digest its key does not hash to. The seeds are
// TestCompleteAdmissionVerification's uploads plus torn and foreign JSON;
// which picks the URL digest: an outstanding cell, a cell never enqueued,
// or no digest at all.
func FuzzCellComplete(f *testing.F) {
	spec := workerproto.CellSpec{Workload: "Web-Frontend", Design: "baseline", Cores: 2, Warm: 600, Measure: 600, Seed: 1}
	other, never := spec, spec
	other.Seed, never.Seed = 99, 3
	urls := []string{spec.Digest(), other.Digest(), never.Digest(), "not-a-digest"}
	upload := func(which uint8, req workerproto.CompleteRequest) {
		b, _ := json.Marshal(req)
		f.Add(which, b)
	}
	good := &runner.ResultJSON{Workload: spec.Workload, Design: spec.Design}
	upload(0, workerproto.CompleteRequest{WorkerID: "w", Spec: spec, Result: good})
	upload(1, workerproto.CompleteRequest{WorkerID: "w", Spec: spec, Result: good})
	upload(0, workerproto.CompleteRequest{WorkerID: "w", Spec: spec, Result: &runner.ResultJSON{Workload: "OLTP-DB-A", Design: spec.Design}})
	upload(0, workerproto.CompleteRequest{WorkerID: "w", Spec: spec, Result: &runner.ResultJSON{Workload: spec.Workload, Design: spec.Design, NoCFlits: 7}})
	upload(1, workerproto.CompleteRequest{WorkerID: "w", Spec: other, Error: "boom", Transient: true})
	upload(2, workerproto.CompleteRequest{WorkerID: "w", Spec: never, Result: good})
	upload(0, workerproto.CompleteRequest{Spec: spec})
	for _, b := range []string{`{"spec":`, `{"bogus":1}`, `null`, `{"result":{"workload":7}}`} {
		f.Add(uint8(3), []byte(b))
	}
	e := newTestEnv(f, func(c *Config) { c.LeaseTTL = time.Hour })
	for _, s := range []workerproto.CellSpec{spec, other} {
		_, cancel := e.srv.dispatch.enqueue(s, "")
		f.Cleanup(func() { cancel() })
	}
	h := e.srv.handler()
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		digest := urls[int(which)%len(urls)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cells/"+digest+"/complete", bytes.NewReader(body)))
		var req workerproto.CompleteRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		malformed := dec.Decode(&req) != nil
		switch code := rec.Code; {
		case code >= 500:
			t.Fatalf("upload %q under %s = %d", body, digest, code)
		case malformed && code != http.StatusBadRequest && len(body) <= maxCompleteBytes:
			t.Fatalf("malformed upload %q = %d, want 400", body, code)
		case code == http.StatusOK && req.Spec.Digest() != digest:
			t.Fatalf("upload of cell %s accepted under %s", req.Spec.Digest(), digest)
		}
		if ent, ok := e.srv.cache.get(digest); ok {
			if s, ok := workerproto.ParseKey(ent.Key); !ok || s.Digest() != digest {
				t.Fatalf("cache holds key %q under digest %s", ent.Key, digest)
			}
		}
	})
}

// FuzzWorkerRequests throws arbitrary register, lease and heartbeat calls at
// the worker-plane endpoints, the {id} path segment included, on a server
// with one registered worker. A body that does not decode is answered 400, a
// lease or heartbeat for an id that is not a live worker 404, anything else
// 200. A granted batch holds at most the requested max (LeaseBatchMax when
// max is out of range), and every granted spec is valid and hashes to its
// lease digest. No call is held: the op byte's upper bits queue that many
// cells first, and each request's context ends after a millisecond, which
// ends a park. The seeds are the calls of TestLeaseEndpointParks and
// TestWorkerPlaneRemoteExecution plus torn and foreign JSON.
func FuzzWorkerRequests(f *testing.F) {
	const known = "w000001" // the worker registered below
	for _, s := range []struct {
		op   uint8
		id   string
		body any
	}{
		{0, "", workerproto.RegisterRequest{Name: "t", Capacity: 1}},
		{0, "", workerproto.RegisterRequest{Name: "w1", Capacity: 2}},
		{1, known, workerproto.LeaseRequest{Max: 1}},
		{1 | 3<<2, known, workerproto.LeaseRequest{Max: 2}},
		{1 | 20<<2, known, workerproto.LeaseRequest{}},
		{1 | 20<<2, known, workerproto.LeaseRequest{Max: 1000}},
		{1 | 2<<2, known, workerproto.LeaseRequest{Max: -1}},
		{1, "w999999", workerproto.LeaseRequest{Max: 1}},
		{2, known, workerproto.HeartbeatRequest{}},
		{2, known, workerproto.HeartbeatRequest{Active: []string{testCell(1).Digest(), "not-a-digest"}}},
		{2, "w999999", workerproto.HeartbeatRequest{}},
	} {
		b, _ := json.Marshal(s.body)
		f.Add(s.op, s.id, b)
	}
	for i, b := range []string{`{"max":`, `{"bogus":1}`, `null`, `{"max":"1"}`, `{"active":[1]}`, ``} {
		f.Add(uint8(i), known, []byte(b))
	}
	e := newTestEnv(f, func(c *Config) { c.LeaseTTL = time.Hour; c.RunCell = fakeRunCell })
	d := e.srv.dispatch
	if reg := d.register("fuzz", 1); reg.WorkerID != known {
		f.Fatalf("the first worker registered as %s, want %s", reg.WorkerID, known)
	}
	mux := e.srv.handler().(*http.ServeMux)
	var seq int64
	f.Fuzz(func(t *testing.T, op uint8, id string, body []byte) {
		route, req := "/v1/workers/register", any(new(workerproto.RegisterRequest))
		switch op % 3 {
		case 1:
			route, req = "/v1/workers/{id}/lease", new(workerproto.LeaseRequest)
		case 2:
			route, req = "/v1/workers/{id}/heartbeat", new(workerproto.HeartbeatRequest)
		}
		path := strings.Replace(route, "{id}", url.PathEscape(id), 1)
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
		if _, pattern := mux.Handler(r); pattern != "POST "+route {
			// Not one path segment ("", ".", ".." or "/"): the mux itself
			// answers, with a redirect or a 404.
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, r)
			if rec.Code != http.StatusMovedPermanently && rec.Code != http.StatusNotFound {
				t.Fatalf("POST %s = %d, want a redirect or 404", path, rec.Code)
			}
			return
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		d.mu.Lock()
		_, live := d.workers[id]
		d.mu.Unlock()
		want := http.StatusOK
		switch {
		case dec.Decode(req) != nil:
			want = http.StatusBadRequest
		case op%3 != 0 && !live:
			want = http.StatusNotFound
		}

		for range int(op>>2) % 24 {
			seq++
			spec := testCell(seq)
			d.enqueue(spec, "")
			defer d.deliver(spec.Digest(), remoteOutcome{err: errors.New("fuzz iteration over")})
		}
		rec := httptest.NewRecorder()
		start := time.Now()
		mux.ServeHTTP(rec, r)
		if held := time.Since(start); held > time.Second {
			t.Fatalf("POST %s held for %v", path, held)
		}
		if rec.Code != want {
			t.Fatalf("POST %s %q = %d, want %d", path, body, rec.Code, want)
		}
		lr, isLease := req.(*workerproto.LeaseRequest)
		if !isLease || rec.Code != http.StatusOK {
			return
		}
		var resp workerproto.LeaseResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("lease answer %q: %v", rec.Body.Bytes(), err)
		}
		max := lr.Max
		if max <= 0 || max > DefaultLeaseBatchMax {
			max = DefaultLeaseBatchMax
		}
		if len(resp.Leases) > max {
			t.Fatalf("lease with max %d granted %d cells, want at most %d", lr.Max, len(resp.Leases), max)
		}
		for _, l := range resp.Leases {
			if !l.Spec.Valid() || l.Spec.Digest() != l.Digest {
				t.Fatalf("granted spec %+v under digest %s", l.Spec, l.Digest)
			}
		}
	})
}
