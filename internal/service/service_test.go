package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dnc/internal/service/workerproto"
	"dnc/internal/sim"
	"dnc/internal/sim/runner"
)

// ---- test environment ----
//
// Each test gets a uniquely identified environment (fresh data dir, fresh
// server on an ephemeral port) and may mutate the Config through a pre-test
// hook before the server starts. The environment drains on cleanup unless
// the test already did.

// testSeq disambiguates environments within one process so data dirs and
// log lines are traceable to their test even when t.Parallel interleaves.
var testSeq atomic.Int64

type testEnv struct {
	t       testing.TB
	id      string
	dataDir string
	srv     *Server
	base    string
	drained atomic.Bool
}

// newTestEnv builds and starts a server. Pre-test hooks run against the
// Config before New; use them to install executor seams, shrink queues, or
// re-point DataDir at a previous environment's state. A fuzz target builds
// its server under test the same way (t is the *testing.F).
func newTestEnv(t testing.TB, hooks ...func(*Config)) *testEnv {
	t.Helper()
	e := &testEnv{
		t:       t,
		id:      fmt.Sprintf("%s-%03d", t.Name(), testSeq.Add(1)),
		dataDir: filepath.Join(t.TempDir(), "data"),
	}
	cfg := Config{
		DataDir:  e.dataDir,
		Workers:  2,
		CellJobs: 2,
	}
	for _, h := range hooks {
		h(&cfg)
	}
	e.dataDir = cfg.DataDir
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("[%s] New: %v", e.id, err)
	}
	e.srv = srv
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("[%s] Start: %v", e.id, err)
	}
	e.base = "http://" + srv.Addr()
	t.Cleanup(func() { e.drain() })
	return e
}

func (e *testEnv) drain() {
	if e.drained.Swap(true) {
		return
	}
	// A connection the client pool dialled but never used counts as busy to
	// http.Server.Shutdown for its first five seconds.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err != nil {
		e.t.Errorf("[%s] drain: %v", e.id, err)
	}
}

// smallSpec is the cheapest real sweep: the smallest preset workload at a
// tiny geometry, still running the full simulator.
func smallSpec() Spec {
	return Spec{
		Workloads:     []string{"Web-Frontend"},
		Designs:       []string{"baseline"},
		Cores:         2,
		WarmCycles:    600,
		MeasureCycles: 600,
		Seeds:         []int64{1},
	}
}

// fakeRunCell is an executor seam returning an instant deterministic result
// derived from the cell identity, for tests that exercise queueing and
// persistence rather than simulation.
func fakeRunCell(ctx context.Context, spec workerproto.CellSpec) (*runner.ResultJSON, error) {
	r := sim.Result{Workload: spec.Workload, Design: spec.Design}
	r.M.Cycles = spec.Measure
	r.M.Retired = uint64(spec.Seed) * 1000
	return runner.NewResultJSON(r), nil
}

func (e *testEnv) postJSON(body string) *http.Response {
	e.t.Helper()
	resp, err := http.Post(e.base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		e.t.Fatalf("[%s] POST /v1/jobs: %v", e.id, err)
	}
	return resp
}

// submit POSTs a spec and decodes the accepted job status.
func (e *testEnv) submit(spec Spec) JobStatus {
	e.t.Helper()
	b, _ := json.Marshal(spec)
	resp := e.postJSON(string(b))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var msg map[string]string
		json.NewDecoder(resp.Body).Decode(&msg)
		e.t.Fatalf("[%s] submit = %d (%s), want 202", e.id, resp.StatusCode, msg["error"])
	}
	if loc := resp.Header.Get("Location"); loc == "" {
		e.t.Fatalf("[%s] 202 without Location header", e.id)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		e.t.Fatalf("[%s] decoding submit response: %v", e.id, err)
	}
	return st
}

func (e *testEnv) getJSON(path string, v any) int {
	e.t.Helper()
	resp, err := http.Get(e.base + path)
	if err != nil {
		e.t.Fatalf("[%s] GET %s: %v", e.id, path, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			e.t.Fatalf("[%s] decoding GET %s: %v", e.id, path, err)
		}
	}
	return resp.StatusCode
}

// waitJob polls until the job reaches a terminal state and returns it.
func (e *testEnv) waitJob(id string) JobStatus {
	e.t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		var st JobStatus
		if code := e.getJSON("/v1/jobs/"+id, &st); code != http.StatusOK {
			e.t.Fatalf("[%s] GET job %s = %d", e.id, id, code)
		}
		if st.State == JobDone || st.State == JobFailed {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	e.t.Fatalf("[%s] job %s did not finish", e.id, id)
	return JobStatus{}
}

// streamResults consumes the whole JSONL results stream for a job.
func (e *testEnv) streamResults(id string) []resultLine {
	e.t.Helper()
	resp, err := http.Get(e.base + "/v1/jobs/" + id + "/results")
	if err != nil {
		e.t.Fatalf("[%s] GET results: %v", e.id, err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		e.t.Fatalf("[%s] results content-type = %q", e.id, ct)
	}
	var lines []resultLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var l resultLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			e.t.Fatalf("[%s] bad results line %q: %v", e.id, sc.Text(), err)
		}
		lines = append(lines, l)
	}
	return lines
}

// ---- integration tests ----

// TestServiceEndToEnd runs a real (tiny) sweep through the full HTTP path
// and proves the acceptance property the cache rests on: a result served by
// the service is byte-identical to a fresh standalone run of the same cell.
func TestServiceEndToEnd(t *testing.T) {
	e := newTestEnv(t)
	spec := smallSpec()
	spec.Designs = []string{"baseline", "NL"}
	spec.Seeds = []int64{1, 2}

	st := e.submit(spec)
	st = e.waitJob(st.ID)
	if st.State != JobDone {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}
	if st.Cells != 4 || st.Simulated != 4 || st.Done != 4 {
		t.Fatalf("job tallies = %+v, want 4 cells all simulated", st)
	}
	if len(st.Digests) != 4 {
		t.Fatalf("terminal status carries %d digests, want 4", len(st.Digests))
	}

	// The streamed results must cover every cell with result bodies whose
	// digests match the status map.
	lines := e.streamResults(st.ID)
	if len(lines) != 4 {
		t.Fatalf("results stream has %d lines, want 4", len(lines))
	}
	for _, l := range lines {
		if l.Result == nil {
			t.Fatalf("streamed line %s has no result body", l.Key)
		}
		if got := ResultDigest(l.Result); got != st.Digests[l.Digest] {
			t.Fatalf("streamed result digest %s != status digest %s for %s",
				got, st.Digests[l.Digest], l.Key)
		}
	}

	// Bit-exactness proof: re-run one cell fresh, outside the service, and
	// compare content digests.
	cell := spec.normalized().cells()[0]
	fresh, err := sim.RunChecked(context.Background(), cell.RunConfig())
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	want := ResultDigest(runner.NewResultJSON(fresh))
	if got := st.Digests[cell.Digest()]; got != want {
		t.Fatalf("service result digest %s != fresh run digest %s", got, want)
	}

	// The service stays healthy, /metrics counts the four cells, and pprof
	// is mounted.
	if m, _ := fetchMetrics(t, e); m["dnc_cells_admitted_total"] != 4 {
		t.Fatalf("dnc_cells_admitted_total = %v, want 4", m["dnc_cells_admitted_total"])
	}
	if code := e.getJSON("/v1/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	resp, err := http.Get(e.base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof not mounted: /debug/pprof/ = %d", resp.StatusCode)
	}
}

// TestDuplicateSubmissionFullyCached submits the same spec twice and proves
// the second job is served entirely from the dedup cache: zero new
// simulation work, identical result digests.
func TestDuplicateSubmissionFullyCached(t *testing.T) {
	e := newTestEnv(t)
	spec := smallSpec()
	spec.Seeds = []int64{1, 2}

	first := e.waitJob(e.submit(spec).ID)
	if first.State != JobDone || first.Simulated != 2 {
		t.Fatalf("first job = %+v, want done with 2 simulated", first)
	}
	simulatedBefore := e.srv.Stats().Simulated

	second := e.waitJob(e.submit(spec).ID)
	if second.State != JobDone {
		t.Fatalf("second job state = %s", second.State)
	}
	if second.Cached != 2 || second.Simulated != 0 {
		t.Fatalf("second job = %d cached %d simulated, want all 2 cached", second.Cached, second.Simulated)
	}
	if got := e.srv.Stats().Simulated; got != simulatedBefore {
		t.Fatalf("duplicate submission simulated %d new cells, want 0", got-simulatedBefore)
	}
	for digest, rd := range first.Digests {
		if second.Digests[digest] != rd {
			t.Fatalf("cached result digest differs for %s: %s vs %s", digest, second.Digests[digest], rd)
		}
	}

	// Both jobs' result streams serve the same bodies.
	f, s := e.streamResults(first.ID), e.streamResults(second.ID)
	if len(f) != 2 || len(s) != 2 {
		t.Fatalf("stream lengths %d/%d, want 2/2", len(f), len(s))
	}
	for i := range s {
		if s[i].Status != OutcomeCached || s[i].Result == nil {
			t.Fatalf("second stream line %d = %+v, want cached with body", i, s[i])
		}
	}
}

// TestMalformedSubmissionsRejected walks the 400 surface: syntax errors,
// unknown fields, unknown presets, out-of-range geometry, and over-expansion
// must all be rejected without accepting a job.
func TestMalformedSubmissionsRejected(t *testing.T) {
	e := newTestEnv(t, func(c *Config) {
		c.RunCell = fakeRunCell
		c.MaxCellsPerJob = 4
	})
	cases := []struct {
		name, body string
	}{
		{"syntax", `{"workloads": [`},
		{"unknown field", `{"workloads":["Web-Frontend"],"designs":["baseline"],"bogus":1}`},
		{"wrong type", `{"workloads":"Web-Frontend","designs":["baseline"]}`},
		{"empty", `{}`},
		{"unknown workload", `{"workloads":["Web-Backend"],"designs":["baseline"]}`},
		{"unknown design", `{"workloads":["Web-Frontend"],"designs":["warp-drive"]}`},
		{"bad mode", `{"workloads":["Web-Frontend"],"designs":["baseline"],"mode":"thumb"}`},
		{"cores out of range", `{"workloads":["Web-Frontend"],"designs":["baseline"],"cores":99}`},
		{"window too long", `{"workloads":["Web-Frontend"],"designs":["baseline"],"measure_cycles":99000000}`},
		{"duplicate seeds", `{"workloads":["Web-Frontend"],"designs":["baseline"],"seeds":[7,7]}`},
		{"over cell limit", `{"workloads":["Web-Frontend"],"designs":["baseline"],"seeds":[1,2,3,4,5]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := e.postJSON(tc.body)
			defer resp.Body.Close()
			var msg map[string]string
			json.NewDecoder(resp.Body).Decode(&msg)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d (%s), want 400", resp.StatusCode, msg["error"])
			}
			if msg["error"] == "" {
				t.Fatal("400 without an error body")
			}
		})
	}
	if jobs := e.srv.Jobs(); len(jobs) != 0 {
		t.Fatalf("malformed submissions created %d jobs", len(jobs))
	}
}

// TestBackpressure fills the bounded queue and asserts overload is answered
// with 429 + Retry-After and a retired acceptance: a restart over the data
// dir brings back the two accepted jobs and finishes them, never the
// refused one, and the refused client then gets in.
func TestBackpressure(t *testing.T) {
	e := newTestEnv(t, func(c *Config) {
		c.Workers = 1
		c.QueueCap = 1
		c.RunCell = func(ctx context.Context, _ workerproto.CellSpec) (*runner.ResultJSON, error) {
			<-ctx.Done() // hold the cell until the drain cancels it
			return nil, ctx.Err()
		}
	})
	running := e.submit(smallSpec()) // worker picks this up and blocks
	waitFor(t, "worker to start the job", func() bool { return e.srv.Stats().Running == 1 })
	queued := e.submit(smallSpec()) // fills the single queue slot

	resp := e.postJSON(`{"workloads":["Web-Frontend"],"designs":["baseline"]}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submit = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if jobs := e.srv.Jobs(); len(jobs) != 2 {
		t.Fatalf("rejected submission left %d jobs, want 2", len(jobs))
	}

	e.drain()
	e2 := newTestEnv(t, func(c *Config) {
		c.DataDir = e.dataDir
		c.Workers = 1
		c.QueueCap = 1
		c.RunCell = fakeRunCell
	})
	if jobs := e2.srv.Jobs(); len(jobs) != 2 {
		t.Fatalf("after a restart %d jobs are known, want the 2 accepted ones", len(jobs))
	}
	for _, id := range []string{running.ID, queued.ID} {
		if st := e2.waitJob(id); st.State != JobDone {
			t.Fatalf("job %s = %s after the restart", id, st.State)
		}
	}
	// Backlog cleared: the retry now succeeds.
	if st := e2.waitJob(e2.submit(smallSpec()).ID); st.State != JobDone {
		t.Fatalf("post-backlog submit = %s, want done", st.State)
	}
}

// TestGracefulDrainLosesNoAcceptedJob drains a loaded server mid-job and
// proves the acceptance guarantee: Drain returns cleanly, and a new process
// over the same data dir completes every accepted job.
func TestGracefulDrainLosesNoAcceptedJob(t *testing.T) {
	e := newTestEnv(t, func(c *Config) {
		c.Workers = 1
		c.RunCell = func(ctx context.Context, _ workerproto.CellSpec) (*runner.ResultJSON, error) {
			<-ctx.Done() // hold the cell until drain cancels it
			return nil, ctx.Err()
		}
	})
	inFlight := e.submit(smallSpec())
	spec2 := smallSpec()
	spec2.Seeds = []int64{2}
	queued := e.submit(spec2)
	waitFor(t, "worker to start a job", func() bool { return e.srv.Stats().Running == 1 })

	e.drain() // must return nil within its budget (checked inside)

	if _, err := e.srv.Submit(smallSpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after drain = %v, want ErrDraining", err)
	}

	// Next process over the same data dir: both jobs recover with their
	// original IDs and complete.
	e2 := newTestEnv(t, func(c *Config) {
		c.DataDir = e.dataDir
		c.RunCell = fakeRunCell
	})
	for _, id := range []string{inFlight.ID, queued.ID} {
		st := e2.waitJob(id)
		if st.State != JobDone || st.Done != st.Cells {
			t.Fatalf("recovered job %s = %s (%d/%d cells), want done", id, st.State, st.Done, st.Cells)
		}
	}
	if got := len(e2.srv.Jobs()); got != 2 {
		t.Fatalf("recovered %d jobs, want 2", got)
	}
}

// TestJobPriorityOrder proves higher-priority submissions overtake earlier
// ones end to end (not just in the queue unit).
func TestJobPriorityOrder(t *testing.T) {
	release := make(chan struct{})
	var order []string
	done := make(chan string, 8)
	e := newTestEnv(t, func(c *Config) {
		c.Workers = 1
		c.RunCell = func(ctx context.Context, spec workerproto.CellSpec) (*runner.ResultJSON, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			done <- spec.Key()
			return fakeRunCell(ctx, spec)
		}
	})
	blocker := e.submit(smallSpec()) // occupies the worker
	waitFor(t, "worker to block", func() bool { return e.srv.Stats().Running == 1 })

	low := smallSpec()
	low.Seeds = []int64{10}
	lowSt := e.submit(low)
	high := smallSpec()
	high.Seeds = []int64{20}
	high.Priority = 5
	highSt := e.submit(high)

	close(release)
	for i := 0; i < 3; i++ {
		select {
		case id := <-done:
			order = append(order, id)
		case <-time.After(30 * time.Second):
			t.Fatal("jobs did not finish")
		}
	}
	e.waitJob(blocker.ID)
	e.waitJob(lowSt.ID)
	e.waitJob(highSt.ID)
	if !strings.Contains(order[1], "seed=20") || !strings.Contains(order[2], "seed=10") {
		t.Fatalf("execution order %v, want the priority-5 job before the priority-0 one", order)
	}
}

// waitFor polls a condition with a bounded budget.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
