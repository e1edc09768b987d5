package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dnc/internal/httpx"
	"dnc/internal/jsonl"
	"dnc/internal/resultstore"
	"dnc/internal/service/worker"
	"dnc/internal/service/workerproto"
	"dnc/internal/sim/runner"
	"dnc/internal/telemetry"
)

// Config tunes the job server. The zero value plus a DataDir is a working
// production configuration.
type Config struct {
	// DataDir roots all persistent state: jobs.jsonl, cache.jsonl,
	// deadletters.jsonl, store.dncr. Required.
	DataDir string
	// Workers is the number of jobs executed concurrently (default 2).
	Workers int
	// CellJobs bounds concurrently simulating cells within one job
	// (default GOMAXPROCS); the in-process lease client runs Workers ×
	// CellJobs.
	CellJobs int
	// QueueCap bounds queued (accepted, unstarted) jobs; a full queue
	// answers 429 + Retry-After (default 64).
	QueueCap int
	// Retries is how many more attempts a cell gets after a transient
	// failure: a lease revoked by the LeaseMaxAge progress budget from a
	// client still running the cell, or a deadline error its lease client
	// reports.
	// It goes straight back to the lease queue (default 2; negative: none).
	Retries int
	// JobTimeout bounds one job's whole sweep (0 = none). An expired job
	// is terminal-failed, not retried.
	JobTimeout time.Duration
	// MaxCellsPerJob bounds a single spec's expansion (default 4096).
	MaxCellsPerJob int
	// DeadLetterAfter is how many non-transient failures a cell
	// accumulates (across jobs) before its circuit opens and it is served
	// straight from the dead-letter list without running (default 2).
	DeadLetterAfter int
	// CacheMaxBytes bounds the on-disk result cache; once live entries
	// exceed it the oldest are evicted (and the file compacted) so the
	// cache cannot grow without limit (0 = unbounded).
	CacheMaxBytes int64
	// LeaseTTL is the remote worker heartbeat window: a worker silent this
	// long forfeits its leases, which reassign to the queue
	// (default DefaultLeaseTTL).
	LeaseTTL time.Duration
	// LeaseMaxAge is the one execution budget per attempt: a cell leased
	// this long without completing is revoked even from a worker that is
	// still heartbeating — the frozen-worker watchdog — and the in-process
	// lease client stops a run at this age (default DefaultLeaseMaxAge).
	LeaseMaxAge time.Duration
	// LeaseBatchMax caps cells per worker lease request
	// (default DefaultLeaseBatchMax).
	LeaseBatchMax int
	// Clock, when set, replaces time.Now for the lease table. It exists
	// for the deterministic fault plane (fake-clock chaos tests);
	// production leaves it nil.
	Clock func() time.Time
	// RunCell, when set, replaces the simulator in the in-process lease
	// client (test seam; see worker.Options.Run).
	RunCell func(ctx context.Context, spec workerproto.CellSpec) (*runner.ResultJSON, error)
	// Logger receives structured operational logs (accepted jobs, worker
	// registrations, lease reassignments, admission refusals). Nil discards
	// — library embedders and tests stay quiet by default; dncserved passes
	// a real handler.
	Logger *slog.Logger
	// DisableTelemetry turns off the metrics registry and the lifecycle
	// recorder (no /metrics, no /v1/jobs/{id}/trace). It exists for the
	// overhead benchmark, which gates the telemetry-enabled service path
	// against this baseline.
	DisableTelemetry bool
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.CellJobs == 0 {
		c.CellJobs = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.MaxCellsPerJob == 0 {
		c.MaxCellsPerJob = 4096
	}
	if c.DeadLetterAfter == 0 {
		c.DeadLetterAfter = 2
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	return c
}

// DeadLetter records a cell whose failures are non-transient and repeated:
// the service stops burning cycles on it and surfaces it in the API
// instead. Deterministic simulations make this safe — a panic reproduces
// identically on every attempt, so retrying a poisoned cell forever would
// only stall the queue.
type DeadLetter struct {
	Digest   string `json:"digest"`
	Key      string `json:"key"`
	Error    string `json:"error"`
	Failures int    `json:"failures"`
}

// Stats is a point-in-time operational snapshot. /metrics serves every
// field but Draining as a dnc_* series read from the same source. The
// embedded dispatchStats is the lease-plane accounting (registered / live /
// expired remote workers, lease depth, reassignment and admission
// counters); WorkersLive 0 means the in-process client runs the cells.
type Stats struct {
	Draining     bool
	Jobs         int
	Queued       int
	Running      int
	Simulated    uint64
	CacheHits    uint64
	CacheEntries int
	// CacheBytes is the live (post-eviction) cache payload size;
	// CacheEvictions counts entries evicted under Config.CacheMaxBytes.
	CacheBytes     int64
	CacheEvictions uint64
	// The Store fields describe the columnar result store (the cache's
	// queryable sidecar serving /v1/query; see store.go): cells admitted,
	// the file's size (sealed segments only), the in-memory query index, and
	// appends that could not be written to the file.
	StoreCells       int
	StoreBytes       int64
	StoreIndexBytes  int
	StoreWriteErrors uint64
	DeadLetters      int
	dispatchStats
}

// Server is the sweep-as-a-service daemon: HTTP API in front, bounded
// priority queue in the middle, job workers behind leasing every cell to a
// lease client, all state funneled through the persistent result cache.
type Server struct {
	cfg      Config
	cache    *resultCache
	queue    *jobQueue
	dispatch *dispatcher
	admitted atomic.Uint64 // cells of jobs satisfied by a fresh result
	log      *slog.Logger
	tel      *serverTelemetry    // nil when telemetry is disabled
	rec      *telemetry.Recorder // nil when telemetry is disabled

	ctx    context.Context // worker lifetime; cancelled by Drain
	cancel context.CancelFunc
	wg     sync.WaitGroup

	addr    string // bound listen address, set by Start
	httpSrv *http.Server

	// storeMu guards the columnar result store (the cache's queryable
	// sidecar; see store.go): admissions write, queries and stats read.
	// Separate from mu: an append that fills the batch fsyncs.
	storeMu        sync.RWMutex
	store          *resultstore.Writer
	storeWriteErrs uint64 // appends the store accepted but could not write

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	seq      int
	running  int
	draining bool
	dead     map[string]*DeadLetter
	deadF    *os.File
	deadErrs []error  // dead-letter appends that failed, reported by Drain
	jobsF    *os.File // the job log; appends need no lock (see jsonl.Append)
}

// New builds a server over DataDir, recovering persisted state: the result
// cache, the dead-letter list, and every accepted-but-unfinished job
// (re-queued in original submission order, ahead of nothing — priorities
// still apply).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, errors.New("service: Config.DataDir is required")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("service: creating data dir: %w", err)
	}
	cache, err := openResultCache(filepath.Join(cfg.DataDir, "cache.jsonl"), cfg.CacheMaxBytes)
	if err != nil {
		return nil, err
	}

	s := &Server{
		cfg:      cfg,
		cache:    cache,
		queue:    newJobQueue(cfg.QueueCap),
		dispatch: newDispatcher(cfg.Clock, cfg.LeaseTTL, cfg.LeaseMaxAge, cfg.LeaseBatchMax, cfg.Retries),
		jobs:     make(map[string]*job),
		dead:     make(map[string]*DeadLetter),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())

	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if !cfg.DisableTelemetry {
		// The recorder shares the dispatcher's clock seam so fake-clock chaos
		// tests see deterministic timelines; all lifecycle timestamps are this
		// one clock's (worker clocks never enter the conservation math).
		s.rec = telemetry.NewRecorder(cfg.Clock)
		s.tel = newServerTelemetry(s)
		s.rec.OnCellDone(s.tel.observeCell)
	}
	s.dispatch.rec = s.rec
	s.dispatch.log = s.log

	if err := s.loadDeadLetters(filepath.Join(cfg.DataDir, "deadletters.jsonl")); err != nil {
		cache.close()
		return nil, err
	}
	if err := s.openStore(); err != nil {
		cache.close()
		return nil, fmt.Errorf("service: opening column store: %w", err)
	}

	terminal, pending, maxSeq, jobsF, err := loadJobs(cfg.DataDir)
	if err != nil {
		s.closeStore()
		cache.close()
		return nil, fmt.Errorf("service: recovering jobs: %w", err)
	}
	s.jobsF, s.seq = jobsF, maxSeq
	for _, j := range append(terminal, pending...) {
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}
	for _, j := range pending {
		s.queue.requeue(j)
	}
	return s, nil
}

// Start binds addr and serves the API; workers start pulling jobs and the
// in-process lease client starts. It returns once listening (serving
// continues in the background).
func (s *Server) Start(addr string) error {
	srv, bound, err := httpx.Serve(addr, s.handler())
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	s.httpSrv, s.addr = srv, bound
	for w := 0; w < s.cfg.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.workerLoop()
		}()
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// It returns once a drain begins: inProcessAPI never fails a
		// registration, so there is no error to report. Its runs are bounded
		// by the progress budget every lease has: a heartbeat revokes them.
		_ = worker.RunOn(s.ctx, inProcessAPI{s}, worker.Options{
			Name: inProcessID, Capacity: s.cfg.Workers * s.cfg.CellJobs, Run: s.cfg.RunCell,
		})
	}()
	// Lease-expiry sweep: the real clock only decides how often we look;
	// what has expired is judged by the injectable dispatcher clock, so
	// fake-clock chaos tests stay deterministic.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(leaseExpirySweep)
		defer t.Stop()
		for {
			select {
			case <-s.ctx.Done():
				return
			case <-t.C:
				s.dispatch.expire()
			}
		}
	}()
	return nil
}

// Addr is the bound listen address (useful with ":0"); empty before Start.
func (s *Server) Addr() string { return s.addr }

// Submit validates and admits a sweep, durably recording acceptance before
// acknowledging it. Returns ErrDraining during shutdown and ErrQueueFull
// under backpressure; any other error is a validation failure.
func (s *Server) Submit(spec Spec) (JobStatus, error) {
	norm := spec.normalized()
	if err := norm.validate(s.cfg.MaxCellsPerJob); err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return JobStatus{}, ErrDraining
	}
	s.seq++
	seq := s.seq
	s.mu.Unlock()

	j := newJob(jobID(seq, norm), seq, norm)
	// Persist acceptance first: a crash after this point recovers the job;
	// a queue refusal retires it before the client ever saw the ID.
	if _, err := jsonl.Append(s.jobsF, jobRecord{ID: j.id, Spec: &j.spec}); err != nil {
		return JobStatus{}, fmt.Errorf("service: persisting job: %w", err)
	}
	if err := s.queue.push(j); err != nil {
		if _, rerr := jsonl.Append(s.jobsF, jobRecord{ID: j.id, State: jobRetired}); rerr != nil {
			// The refused job comes back, queued, after a restart.
			s.log.Error("retiring a refused job", "job", j.id, "err", rerr.Error())
		}
		return JobStatus{}, err
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	traceID := s.rec.JobSubmitted(j.id, len(j.cells))
	if s.tel != nil {
		s.tel.jobsSubmitted.Inc()
	}
	s.log.Info("job accepted", "job", j.id, "trace", traceID, "cells", len(j.cells), "priority", norm.Priority)
	return j.status(), nil
}

// Job returns the status of one job.
func (s *Server) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

// Jobs lists every known job in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if st, ok := s.Job(id); ok {
			out = append(out, st)
		}
	}
	return out
}

// Stats snapshots the operational counters.
func (s *Server) Stats() Stats {
	cs := s.cache.stats()
	ds := s.dispatch.stats()
	ss := s.storeStats()
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		StoreCells:       ss.cells,
		StoreBytes:       ss.bytes,
		StoreIndexBytes:  ss.indexBytes,
		StoreWriteErrors: ss.writeErrs,

		Draining:       s.draining,
		Jobs:           len(s.jobs),
		Queued:         s.queue.len(),
		Running:        s.running,
		Simulated:      s.admitted.Load(),
		CacheHits:      cs.hits,
		CacheEntries:   cs.entries,
		CacheBytes:     cs.liveBytes,
		CacheEvictions: cs.evictions,
		DeadLetters:    len(s.dead),
		dispatchStats:  ds,
	}
}

// DeadLetters lists the poisoned cells, sorted by key.
func (s *Server) DeadLetters() []DeadLetter {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DeadLetter, 0, len(s.dead))
	for _, d := range s.dead {
		out = append(out, *d)
	}
	sortDeadLetters(out)
	return out
}

// Drain gracefully shuts the service down: stop accepting submissions,
// close the queue, cancel in-flight sweeps and the in-process lease client
// (completed cells are already cached; running ones re-run from cycle 0 on
// the next start), seal the column store's pending batch, close persistent
// state, and stop the HTTP server — all bounded by ctx. Accepted jobs are
// never lost: unfinished ones restart from their durable acceptance record
// on the next process.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	s.queue.close()
	s.cancel()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var errs []error
	select {
	case <-done:
	case <-ctx.Done():
		errs = append(errs, fmt.Errorf("service: drain: workers still busy: %w", ctx.Err()))
	}
	if s.httpSrv != nil {
		if err := httpx.Shutdown(ctx, s.httpSrv); err != nil {
			errs = append(errs, fmt.Errorf("service: drain: http: %w", err))
		}
	}
	if err := s.cache.close(); err != nil {
		errs = append(errs, err)
	}
	if err := s.closeStore(); err != nil {
		errs = append(errs, fmt.Errorf("service: closing column store: %w", err))
	}
	s.mu.Lock()
	errs = append(errs, s.deadErrs...)
	if s.deadF != nil {
		if err := s.deadF.Close(); err != nil {
			errs = append(errs, fmt.Errorf("service: closing dead-letter file: %w", err))
		}
		s.deadF = nil
	}
	s.mu.Unlock()
	if err := s.jobsF.Close(); err != nil {
		errs = append(errs, fmt.Errorf("service: closing job log: %w", err))
	}
	return errors.Join(errs...)
}

// isDraining reports whether Drain has begun.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// workerLoop pulls jobs until the queue closes.
func (s *Server) workerLoop() {
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.mu.Lock()
		s.running++
		s.mu.Unlock()
		s.runJob(j)
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}
}

// runJob executes one job: partition cells into cached / dead / to-run,
// lease the remainder (at most CellJobs at a time), record each outcome as
// it resolves, and persist the terminal record. Admission happens in
// completeCell; the dispatcher decides every cell's attempts. A drain
// mid-job leaves the job queued-on-disk for the next process.
func (s *Server) runJob(j *job) {
	j.setState(JobRunning, "")
	j.resetOutcomes()
	s.rec.JobStarted(j.id)
	s.log.Info("job started", "job", j.id, "trace", telemetry.TraceID(j.id), "cells", len(j.cells))

	var toRun []cellSpec
	for _, c := range j.cells {
		digest := c.Digest()
		if dl := s.deadFor(digest); dl != nil {
			j.addOutcome(Outcome{
				Key: c.Key(), Digest: digest, Status: OutcomeDead,
				Error: fmt.Sprintf("dead-lettered after %d failures: %s", dl.Failures, dl.Error),
			})
			s.rec.CellDead(j.id, digest, c.Key())
			if s.tel != nil {
				s.tel.cellsDead.Inc()
			}
			continue
		}
		if e, ok := s.cache.lookup(digest); ok {
			j.addOutcome(Outcome{
				Key: c.Key(), Digest: digest, Status: OutcomeCached,
				ResultDigest: e.ResultDigest,
			})
			s.rec.CellCached(j.id, digest, c.Key())
			if s.tel != nil {
				s.tel.cellsDeduped.Inc()
			}
			continue
		}
		toRun = append(toRun, c)
		s.rec.CellEnqueued(j.id, digest, c.Key())
	}

	traceID := "" // leases carry no trace identity with telemetry off
	if s.rec != nil {
		traceID = telemetry.TraceID(j.id)
	}
	jobCtx := s.ctx
	var cancel context.CancelFunc
	if s.cfg.JobTimeout > 0 {
		jobCtx, cancel = context.WithTimeout(jobCtx, s.cfg.JobTimeout)
		defer cancel()
	}

	next := make(chan cellSpec)
	var wg sync.WaitGroup
	for range min(s.cfg.CellJobs, len(toRun)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				s.runCell(jobCtx, j, c, traceID)
			}
		}()
	}
	for _, c := range toRun {
		next <- c
	}
	close(next)
	wg.Wait()

	if s.ctx.Err() != nil {
		// Drained mid-job: completed cells are cached, in-flight ones re-run
		// later; the durable acceptance record re-queues the job. Not
		// terminal, so the job timeline stays open for the next process.
		j.setState(JobQueued, "")
		return
	}
	// The terminal line is durable before the state is published: a client
	// that saw done never sees failed, nor a restart that re-runs the job.
	state, errMsg := JobDone, ""
	if err := jobCtx.Err(); err != nil {
		state, errMsg = JobFailed, err.Error() // infrastructure failure (job timeout)
	}
	if _, err := jsonl.Append(s.jobsF, j.terminalRecord(state, errMsg)); err != nil {
		state, errMsg = JobFailed, fmt.Sprintf("persisting completion: %v", err)
	}
	j.setState(state, errMsg)
	if state == JobDone {
		s.log.Info("job done", "job", j.id)
	} else {
		s.log.Error("job failed", "job", j.id, "err", errMsg)
	}
	s.rec.JobDone(j.id)
	if s.tel != nil {
		s.tel.jobsCompleted.Inc()
	}
}

// runCell leases one cell and records how it ended: admitted, or failed
// with its last attempt's error (dead-lettered when that is not
// transient). A job that times out first fails the cell with the context
// error and no dead letter; a drain records nothing, and the cell runs
// again in the next process.
func (s *Server) runCell(ctx context.Context, j *job, c cellSpec, traceID string) {
	digest := c.Digest()
	start := time.Now()
	out := remoteOutcome{err: ctx.Err(), transient: true, attempts: 1}
	if out.err == nil {
		ch, leave := s.dispatch.enqueue(c, traceID)
		select {
		case out = <-ch:
			leave()
		case <-ctx.Done():
			out = remoteOutcome{err: ctx.Err(), transient: true, attempts: leave() + 1}
		}
	}
	if out.err != nil && s.ctx.Err() != nil {
		return
	}
	if s.tel != nil {
		s.tel.cellExec.ObserveDuration(time.Since(start))
	}
	if out.err == nil {
		s.admitted.Add(1)
		j.addOutcome(Outcome{
			Key: c.Key(), Digest: digest, Status: OutcomeSimulated,
			ResultDigest: out.resultDigest, Attempts: out.attempts,
		})
		s.rec.CellDone(j.id, digest, "admitted")
		return
	}
	if !out.transient {
		s.recordFailure(c, out.err)
	}
	j.addOutcome(Outcome{
		Key: c.Key(), Digest: digest, Status: OutcomeFailed,
		Attempts: out.attempts, Error: out.err.Error(),
	})
	if s.tel != nil {
		s.tel.cellsFailed.Inc()
	}
	s.rec.CellDone(j.id, digest, "failed")
	s.log.Warn("cell failed", "job", j.id, "span", telemetry.SpanID(digest),
		"key", c.Key(), "attempts", out.attempts, "err", out.err.Error())
}

// inProcessAPI is the in-process lease client's transport: direct calls, no
// HTTP.
type inProcessAPI struct{ s *Server }

func (a inProcessAPI) Register(context.Context, workerproto.RegisterRequest) (workerproto.RegisterResponse, error) {
	return a.s.dispatch.contract(a.s.dispatch.local), nil
}

func (a inProcessAPI) Lease(ctx context.Context, workerID string, req workerproto.LeaseRequest) (workerproto.LeaseResponse, error) {
	return a.s.lease(ctx, workerID, req.Max)
}

func (a inProcessAPI) Heartbeat(_ context.Context, workerID string, req workerproto.HeartbeatRequest) (workerproto.HeartbeatResponse, error) {
	revoked, err := a.s.dispatch.heartbeat(workerID, req.Active)
	return workerproto.HeartbeatResponse{Revoked: revoked}, err
}

// Complete fails the cell if admission refuses the upload: no other client
// would ever be handed it.
func (a inProcessAPI) Complete(_ context.Context, l workerproto.Lease, _ int, req workerproto.CompleteRequest) (workerproto.CompleteResponse, error) {
	resp, _, err := a.s.completeCell(l.Digest, req)
	if err != nil {
		a.s.dispatch.fail(l.Digest, inProcessID, err, false)
	}
	return resp, err
}

// lease is both transports' lease call. Drain cancels s.ctx after setting
// draining, so a call parked across the start of a drain wakes and reports
// it like one arriving after.
func (s *Server) lease(ctx context.Context, workerID string, max int) (workerproto.LeaseResponse, error) {
	if s.isDraining() {
		return workerproto.LeaseResponse{Draining: true}, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(s.ctx, cancel)
	defer stop()
	leases, err := s.dispatch.lease(ctx, workerID, max)
	if err != nil {
		return workerproto.LeaseResponse{}, err
	}
	return workerproto.LeaseResponse{Leases: leases, Draining: s.ctx.Err() != nil}, nil
}

// completeCell is the admission path for every cell: lease clients' uploads
// (and reported failures), remote or in-process. Verification before
// anything touches the cache:
//
//  1. the uploaded spec's content address must equal the URL digest — a
//     torn or corrupted body can never be admitted under a wrong address;
//  2. a successful result's identity fields must match the spec;
//  3. a digest already cached must carry a bit-identical result — equal
//     digests are acknowledged idempotently (at-least-once execution:
//     expired leases finishing late), unequal ones are a determinism
//     violation and are refused;
//  4. a fresh result is admitted only for a cell the lease plane knows
//     (outstanding), keeping the cache closed to arbitrary stuffing.
func (s *Server) completeCell(digest string, req workerproto.CompleteRequest) (workerproto.CompleteResponse, int, error) {
	reject := func(code int, reason string, err error) (workerproto.CompleteResponse, int, error) {
		s.dispatch.countUpload("rejected")
		s.log.Warn("upload rejected", "digest", digest, "worker", req.WorkerID, "reason", reason)
		return workerproto.CompleteResponse{}, code, err
	}
	if req.Spec.Digest() != digest {
		return reject(http.StatusBadRequest, "spec digest mismatch",
			fmt.Errorf("service: upload spec digest %s does not match cell %s", req.Spec.Digest(), digest))
	}
	if req.Result == nil {
		if req.Error == "" {
			return reject(http.StatusBadRequest, "neither result nor error",
				errors.New("service: upload carries neither result nor error"))
		}
		rerr := fmt.Errorf("service: execution on %s: %s", req.WorkerID, req.Error)
		if !s.dispatch.fail(digest, req.WorkerID, rerr, req.Transient) {
			return workerproto.CompleteResponse{}, http.StatusNotFound,
				fmt.Errorf("service: cell %s is not leased to %s", digest, req.WorkerID)
		}
		s.rec.ExecEnd(digest, req.WorkerID, "failed")
		s.log.Warn("cell execution failed", "span", telemetry.SpanID(digest), "worker", req.WorkerID,
			"transient", req.Transient, "err", req.Error)
		return workerproto.CompleteResponse{Status: workerproto.StatusFailureRecorded}, http.StatusOK, nil
	}
	if req.Result.Workload != req.Spec.Workload || req.Result.Design != req.Spec.Design {
		return reject(http.StatusBadRequest, "result identity mismatch",
			fmt.Errorf("service: result identity (%s, %s) does not match spec (%s, %s)",
				req.Result.Workload, req.Result.Design, req.Spec.Workload, req.Spec.Design))
	}
	s.rec.Upload(digest)
	resultDigest := ResultDigest(req.Result)
	e, cached := s.cache.get(digest)
	if !cached {
		if !s.dispatch.outstanding(digest) {
			return reject(http.StatusNotFound, "cell not outstanding", fmt.Errorf("service: cell %s is not outstanding", digest))
		}
		e = s.admit(req.Spec, req.Result, resultDigest)
	}
	if e.ResultDigest != resultDigest {
		// The cached result, or a racing upload's that won the first insert,
		// differs: refuse this one rather than lie about what was admitted.
		s.dispatch.countUpload("rejected")
		if s.tel != nil {
			s.tel.determinismViolations.Inc()
		}
		s.rec.ExecEnd(digest, req.WorkerID, "rejected")
		s.log.Error("determinism violation", "span", telemetry.SpanID(digest), "worker", req.WorkerID,
			"cached", e.ResultDigest, "uploaded", resultDigest)
		return workerproto.CompleteResponse{}, http.StatusConflict,
			fmt.Errorf("service: upload for %s is not bit-identical to the admitted result (determinism violation)", digest)
	}
	status := workerproto.StatusAdmitted
	if cached {
		status = workerproto.StatusDuplicate
	}
	s.dispatch.countUpload(status)
	s.rec.Verified(digest)
	s.rec.ExecEnd(digest, req.WorkerID, status)
	s.dispatch.deliver(digest, remoteOutcome{resultDigest: e.ResultDigest})
	return workerproto.CompleteResponse{Status: status}, http.StatusOK, nil
}

// admit is the one place a result becomes durable: a single fsynced line in
// cache.jsonl, then a place in the column store's pending batch (derived
// data, sealed later; see store.go). Both halves are first-insert-wins, so
// admitting a cell twice — two uploads racing, a lease that expired and
// finished late — changes nothing, and the returned entry is whichever
// result won. resultDigest is ResultDigest(r).
func (s *Server) admit(spec cellSpec, r *runner.ResultJSON, resultDigest string) *cacheEntry {
	e := s.cache.insert(spec, r, resultDigest)
	s.appendStore(spec, e.Result)
	return e
}

// deadFor returns the dead letter for a cell digest when its circuit is
// open (failure count has reached the threshold).
func (s *Server) deadFor(digest string) *DeadLetter {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.dead[digest]; ok && d.Failures >= s.cfg.DeadLetterAfter {
		return d
	}
	return nil
}

// recordFailure counts a non-transient cell failure and appends it to the
// dead-letter file; once Failures reaches DeadLetterAfter the circuit
// opens and future jobs skip the cell.
func (s *Server) recordFailure(cell cellSpec, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	digest := cell.Digest()
	d, ok := s.dead[digest]
	if !ok {
		d = &DeadLetter{Digest: digest, Key: cell.Key()}
		s.dead[digest] = d
	}
	d.Failures++
	d.Error = err.Error()
	if _, werr := jsonl.Append(s.deadF, d); werr != nil {
		s.deadErrs = append(s.deadErrs, fmt.Errorf("service: dead letter %s: %w", d.Key, werr))
	}
}

// sortDeadLetters orders by key for stable API output.
func sortDeadLetters(ds []DeadLetter) {
	sort.Slice(ds, func(i, j int) bool { return ds[i].Key < ds[j].Key })
}

// loadDeadLetters restores the poison list (latest record per digest wins)
// and opens the file for appending.
func (s *Server) loadDeadLetters(path string) error {
	f, err := jsonl.OpenAppend(path, func(line []byte) {
		var d DeadLetter
		if json.Unmarshal(line, &d) == nil && d.Digest != "" {
			s.dead[d.Digest] = &d
		}
	})
	if err != nil {
		return fmt.Errorf("service: opening dead letters: %w", err)
	}
	s.deadF = f
	return nil
}
