package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	wl "dnc/internal/cfg"
	"dnc/internal/service/workerproto"
	"dnc/internal/sim"
	"dnc/internal/sim/runner"
)

// ---- fault injection: the dead-letter circuit ----

// panicStream corrupts a core's committed stream by panicking after n
// steps — the deterministic stand-in for a poisoned cell: every attempt
// fails identically.
type panicStream struct {
	inner wl.Stream
	n     uint64
	count uint64
}

func (p *panicStream) Next(s *wl.Step) {
	p.inner.Next(s)
	if p.count++; p.count == p.n {
		panic(fmt.Sprintf("chaos: injected fault at step %d", p.n))
	}
}

// TestDeadLetterCircuitBreaker injects a deterministic panic into every
// simulated cell (RunCell runs it through sim.RunInjected) and proves the
// circuit: two jobs fail the cell, the third is served straight from the
// dead-letter list with zero executor invocations, and the poison survives
// a restart.
func TestDeadLetterCircuitBreaker(t *testing.T) {
	var injections atomic.Int64
	wrap := func(i int, s wl.Stream) wl.Stream {
		if i != 0 {
			return s
		}
		injections.Add(1)
		return &panicStream{inner: s, n: 25}
	}
	run := func(ctx context.Context, spec workerproto.CellSpec) (*runner.ResultJSON, error) {
		res, err := sim.RunInjected(ctx, spec.RunConfig(), wrap)
		if err != nil {
			return nil, err
		}
		return runner.NewResultJSON(res), nil
	}
	e := newTestEnv(t, func(c *Config) {
		c.Workers = 1
		c.Retries = 0
		c.DeadLetterAfter = 2
		c.RunCell = run
	})
	spec := smallSpec()
	cell := spec.normalized().cells()[0]

	for attempt := 1; attempt <= 2; attempt++ {
		st := e.waitJob(e.submit(spec).ID)
		if st.State != JobDone || st.Failed != 1 {
			t.Fatalf("poisoned job %d = %s with %d failed, want done with the cell failed", attempt, st.State, st.Failed)
		}
	}
	if injections.Load() == 0 {
		t.Fatal("fault injector never ran; the test is not testing anything")
	}
	before := injections.Load()

	// Circuit open: the third job must not touch the simulator.
	st := e.waitJob(e.submit(spec).ID)
	if st.Dead != 1 || st.Failed != 0 {
		t.Fatalf("third job = %+v, want the cell dead-lettered", st)
	}
	if got := injections.Load(); got != before {
		t.Fatalf("dead-lettered cell still ran the executor (%d new injections)", got-before)
	}
	if len(st.DeadCells) != 1 || !strings.Contains(st.DeadCells[0].Error, "dead-lettered") {
		t.Fatalf("dead cell outcome = %+v", st.DeadCells)
	}

	// The poison list is on the API...
	var dls []DeadLetter
	if code := e.getJSON("/v1/deadletters", &dls); code != http.StatusOK {
		t.Fatalf("GET /v1/deadletters = %d", code)
	}
	if len(dls) != 1 || dls[0].Digest != cell.Digest() || dls[0].Failures < 2 {
		t.Fatalf("dead letters = %+v, want the poisoned cell with >=2 failures", dls)
	}
	if !strings.Contains(dls[0].Error, "injected fault") {
		t.Fatalf("dead letter lost the cause: %q", dls[0].Error)
	}

	// ...and survives a restart: a new process over the same data dir skips
	// the cell immediately.
	e.drain()
	e2 := newTestEnv(t, func(c *Config) {
		c.DataDir = e.dataDir
		c.Workers = 1
		c.DeadLetterAfter = 2
		c.RunCell = run
	})
	st = e2.waitJob(e2.submit(spec).ID)
	if st.Dead != 1 {
		t.Fatalf("restarted server forgot the dead letter: %+v", st)
	}
	if got := injections.Load(); got != before {
		t.Fatalf("restarted server re-ran a dead-lettered cell")
	}
}

// TestDeadLetterWriteErrorsReachDrain records a failure into a dead-letter
// file that refuses writes: the failure still counts in memory, and Drain
// reports the lost record.
func TestDeadLetterWriteErrorsReachDrain(t *testing.T) {
	e := newTestEnv(t, func(c *Config) { c.RunCell = fakeRunCell })
	ro, err := os.Open(filepath.Join(e.dataDir, "deadletters.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	e.srv.mu.Lock()
	e.srv.deadF.Close()
	e.srv.deadF = ro
	e.srv.mu.Unlock()

	cell := smallSpec().normalized().cells()[0]
	e.srv.recordFailure(cell, errors.New("poisoned"))
	if dls := e.srv.DeadLetters(); len(dls) != 1 || dls[0].Failures != 1 {
		t.Fatalf("dead letters = %+v, want the failure counted", dls)
	}
	e.drained.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err == nil || !strings.Contains(err.Error(), "dead letter") {
		t.Fatalf("Drain = %v, want the failed dead-letter write", err)
	}
}

// ---- process-kill chaos: SIGKILL mid-sweep, restart, bit-identical ----

const (
	chaosChildEnv     = "DNC_SERVICE_CHAOS_CHILD"
	chaosDataEnv      = "DNC_SERVICE_CHAOS_DATA"
	chaosAddrFileEnv  = "DNC_SERVICE_CHAOS_ADDRFILE"
	chaosChildTimeout = 2 * time.Minute
)

// TestChaosChildServer is not a test: it is the body of the child process
// re-executed by TestChaosKillResume. It runs a single-worker server over
// the directory named by the environment and then waits to be SIGKILLed (a
// safety timer bounds its life if the parent dies first).
func TestChaosChildServer(t *testing.T) {
	if os.Getenv(chaosChildEnv) == "" {
		t.Skip("not a chaos child")
	}
	srv, err := New(Config{
		DataDir:  os.Getenv(chaosDataEnv),
		Workers:  1,
		CellJobs: 1, // sequential cells so the kill lands mid-sweep
	})
	if err != nil {
		t.Fatalf("chaos child: %v", err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("chaos child: %v", err)
	}
	// Publish the address atomically so the parent never reads a torn file.
	af := os.Getenv(chaosAddrFileEnv)
	if err := os.WriteFile(af+".tmp", []byte(srv.Addr()), 0o644); err != nil {
		t.Fatalf("chaos child: %v", err)
	}
	if err := os.Rename(af+".tmp", af); err != nil {
		t.Fatalf("chaos child: %v", err)
	}
	time.Sleep(chaosChildTimeout) // SIGKILL arrives here
}

// TestChaosKillResume is the headline acceptance test: SIGKILL a server
// process mid-sweep, restart over the same data dir, and prove the job
// completes with results byte-identical to a fresh run — resumed, not
// recomputed from scratch.
func TestChaosKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test skipped in -short mode")
	}
	dataDir := filepath.Join(t.TempDir(), "data")
	addrFile := filepath.Join(t.TempDir(), "addr")

	child := exec.Command(os.Args[0], "-test.run=^TestChaosChildServer$", "-test.v")
	child.Env = append(os.Environ(),
		chaosChildEnv+"=1",
		chaosDataEnv+"="+dataDir,
		chaosAddrFileEnv+"="+addrFile,
	)
	child.Stdout, child.Stderr = os.Stderr, os.Stderr
	if err := child.Start(); err != nil {
		t.Fatalf("starting chaos child: %v", err)
	}
	defer child.Process.Kill()
	go child.Wait() // reap whenever it dies

	var base string
	waitFor(t, "child server address", func() bool {
		b, err := os.ReadFile(addrFile)
		if err != nil || len(b) == 0 {
			return false
		}
		base = "http://" + string(b)
		return true
	})

	// Three sequential cells, sized so each takes a visible moment: the
	// kill lands after the first completes and before the last does.
	spec := Spec{
		Workloads:     []string{"Web-Frontend"},
		Designs:       []string{"baseline", "NL", "N2L"},
		Cores:         2,
		WarmCycles:    20_000,
		MeasureCycles: 20_000,
		Seeds:         []int64{1},
	}
	b, _ := json.Marshal(spec)
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatalf("submitting to child: %v", err)
	}
	var accepted JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("child submit = %d, %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	// Wait for partial progress — at least one cell done, job not finished —
	// then SIGKILL: no drain, no flush, no goodbye.
	waitFor(t, "partial progress in the child", func() bool {
		r, err := http.Get(base + "/v1/jobs/" + accepted.ID)
		if err != nil {
			return false
		}
		defer r.Body.Close()
		var st JobStatus
		if json.NewDecoder(r.Body).Decode(&st) != nil {
			return false
		}
		return st.Done >= 1 && st.State == JobRunning
	})
	if err := child.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	// What a kill in the middle of writing the job's terminal line leaves:
	// the next process must skip it and re-run the job.
	logF, err := os.OpenFile(filepath.Join(dataDir, jobsFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := logF.WriteString(`{"id":"` + accepted.ID + `","state":"done","outcomes":[{"key":`); err != nil {
		t.Fatal(err)
	}
	logF.Close()

	// Restart over the same data dir (in-process this time) and let
	// recovery finish the job.
	e := newTestEnv(t, func(c *Config) {
		c.DataDir = dataDir
		c.Workers = 1
		c.CellJobs = 1
	})
	st := e.waitJob(accepted.ID)
	if st.State != JobDone || st.Done != 3 {
		t.Fatalf("recovered job = %s (%d/3 cells), want done", st.State, st.Done)
	}
	// Recovery must reuse pre-kill work, not recompute everything: at least
	// one cell arrives via the cache, the only record of a finished cell.
	if st.Cached < 1 || st.Resumed != 0 {
		t.Fatalf("cached=%d resumed=%d, want a cell recovered from the cache and none from a journal; the kill either landed too early or recovery restarted from scratch",
			st.Cached, st.Resumed)
	}
	t.Logf("recovery: %d cached, %d simulated", st.Cached, st.Simulated)
	// No runner journal, no job directory: the cache is the only result log
	// and the job log the only job record.
	if got, want := dataFiles(t, dataDir), []string{"cache.jsonl", "deadletters.jsonl", jobsFile, storeFile}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("data dir holds %v, want %v", got, want)
	}
	if recs := jobLines(t, dataDir, accepted.ID); len(recs) != 2 || recs[0].Spec == nil || recs[1].State != JobDone {
		t.Fatalf("jobs.jsonl holds %+v for the job, want its acceptance and one terminal line", recs)
	}

	// Byte-identical proof for every cell, against fresh standalone runs.
	freshIPC := make(map[string]float64) // design → fresh-run IPC
	for _, cell := range spec.normalized().cells() {
		fresh, err := sim.RunChecked(context.Background(), cell.RunConfig())
		if err != nil {
			t.Fatalf("fresh run of %s: %v", cell.Key(), err)
		}
		want := ResultDigest(runner.NewResultJSON(fresh))
		if got := st.Digests[cell.Digest()]; got != want {
			t.Fatalf("post-crash result for %s has digest %s, fresh run %s — recovery is not bit-exact",
				cell.Key(), got, want)
		}
		freshIPC[cell.Design] = float64(fresh.M.Retired) / float64(fresh.M.Cycles)
	}

	// The column store took the same SIGKILL with the child's cells still in
	// its unsealed batch, so the file the kill left holds none of them.
	// Recovery (cache backfill) must leave /v1/query answering with exactly
	// the fresh-run numbers.
	var qr queryResponse
	if code := e.getJSON("/v1/query?metric=ipc", &qr); code != http.StatusOK {
		t.Fatalf("post-crash /v1/query = %d", code)
	}
	if len(qr.Groups) != 3 {
		t.Fatalf("post-crash query has %d groups, want one per design: %+v", len(qr.Groups), qr.Groups)
	}
	for _, g := range qr.Groups {
		want, ok := freshIPC[g.Design]
		if !ok || g.N != 1 || g.Mean != want {
			t.Fatalf("post-crash store aggregate for %s = %+v, want N=1 mean exactly %v", g.Design, g, want)
		}
	}
}
