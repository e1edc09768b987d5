// Package worker is the execution plane's lease client: the loop a dncworker
// process runs against a dncserved control plane over HTTP, and dncserved
// runs in-process over direct calls. It registers for an identity, pulls
// leased cells in batches, executes them through CellSpec.RunConfig (which
// is what makes every client's results bit-identical), uploads completions
// under the cell's content address, and renews its leases by heartbeating
// at the cadence the server dictates.
//
// A session is a pipeline with no timer on its busy path. A cell holds one
// of Capacity execution slots while Options.Run runs and gives it back the
// moment Run returns; the upload proceeds on the cell's own goroutine
// behind a second token, of which there are also Capacity, taken before the
// slot is given back — so a worker holds at most 2×Capacity leases and a
// server that stops acknowledging uploads stops the slots too. The lease
// loop sleeps on the free slots while every one is busy and inside the lease
// request itself while the server has no work (the server parks the call),
// so it is handed the next cell as soon as there is both a slot and a cell.
//
// The loop is built for an at-least-once world: a heartbeat answered with
// revocations abandons those cells (the server has reassigned them),
// workerproto.ErrUnknownWorker from a lease or heartbeat means the
// registration expired and the worker re-registers from scratch, and every
// upload is safe to retry blindly
// because the server acknowledges bit-identical duplicates idempotently.
package worker

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dnc/internal/httpx"
	"dnc/internal/service/workerproto"
	"dnc/internal/sim"
	"dnc/internal/sim/runner"
	"dnc/internal/telemetry"
)

// Options configures one worker process.
type Options struct {
	// Server is the control plane's base URL (e.g. "http://127.0.0.1:9191").
	Server string
	// Name is the human-readable label sent at registration.
	Name string
	// Capacity is how many cells execute concurrently (default 1).
	Capacity int
	// LeaseBatch caps cells pulled per lease request on top of the server's
	// own LeaseBatchMax (0 = the server's cap alone).
	LeaseBatch int
	// PollInterval is the pause after a failed lease request (default
	// 250ms). It is not a polling cadence: an idle worker's lease call is
	// parked by the server and a busy one waits on its own slots.
	PollInterval time.Duration
	// Client is the retrying HTTP client (default: 3 retries on transport
	// errors and 429/502/503).
	Client *httpx.RetryClient
	// Run is the execution seam; nil runs the real simulator via
	// CellSpec.RunConfig.
	Run func(ctx context.Context, spec workerproto.CellSpec) (*runner.ResultJSON, error)
	// FreezeAfter is a chaos hook: after this many result uploads the
	// worker freezes — it keeps leasing nothing new, keeps heartbeating,
	// holds its remaining leases, and never completes them — modeling a
	// wedged process whose heartbeat thread survives. The server's
	// per-lease progress budget is what must catch this. 0 disables.
	FreezeAfter int
	// Log receives structured progress and error records; every cell-level
	// record carries the worker ID and cell identity (default: discard).
	Log *slog.Logger
	// Telemetry, when set, receives worker-side metrics (and instruments
	// Client's retry seams — don't also call InstrumentClient yourself).
	// The embedder serves Telemetry.Reg however it likes; nil disables.
	Telemetry *Telemetry
}

func (o Options) withDefaults() Options {
	if o.Capacity <= 0 {
		o.Capacity = 1
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 250 * time.Millisecond
	}
	if o.Run == nil {
		o.Run = defaultRun
	}
	if o.Log == nil {
		o.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if o.Telemetry == nil {
		// A zero Telemetry has no registry and all-nil (no-op) counters:
		// metrics disabled without a branch at every observation site.
		o.Telemetry = &Telemetry{}
	}
	return o
}

// defaultRun executes the cell for real. The RunConfig comes from the
// shared wire-protocol package, so this is byte-for-byte the configuration
// every other lease client builds.
func defaultRun(ctx context.Context, spec workerproto.CellSpec) (*runner.ResultJSON, error) {
	res, err := sim.RunChecked(ctx, spec.RunConfig())
	if err != nil {
		return nil, err
	}
	return runner.NewResultJSON(res), nil
}

// errReregister flows through a session's context cause when a lease or
// heartbeat answers workerproto.ErrUnknownWorker: the registration expired
// (server restart, missed heartbeats) and the worker must register again.
var errReregister = errors.New("worker: registration expired")

// errRevoked cancels one cell's execution when a heartbeat reports its
// lease revoked; the cell is abandoned without an upload (the server has
// already reassigned it).
var errRevoked = errors.New("worker: lease revoked")

// Run registers with the control plane at o.Server and works until ctx is
// cancelled or the server reports it is draining. Expired registrations
// re-register transparently; only unrecoverable errors (or ctx's error) are
// returned.
func Run(ctx context.Context, o Options) error {
	if o.Client == nil {
		o.Client = &httpx.RetryClient{Retries: 3}
	}
	if o.Telemetry != nil {
		o.Telemetry.InstrumentClient(o.Client)
	}
	return RunOn(ctx, httpAPI{server: strings.TrimRight(o.Server, "/"), client: o.Client}, o)
}

// RunOn is Run over any transport: the same session loop, with the work-API
// calls made through api. o.Server and o.Client are not used.
func RunOn(ctx context.Context, api WorkAPI, o Options) error {
	o = o.withDefaults()
	for ctx.Err() == nil {
		reg, err := api.Register(ctx, workerproto.RegisterRequest{Name: o.Name, Capacity: o.Capacity})
		if err != nil {
			return fmt.Errorf("worker: %w", err)
		}
		o.Telemetry.Registrations.Inc()
		o.Log.Info("registered", "worker", reg.WorkerID, "ttl_ms", reg.LeaseTTLMS,
			"heartbeat_ms", reg.HeartbeatMS, "batch_max", reg.LeaseBatchMax)
		if err := runSession(ctx, api, o, reg); !errors.Is(err, errReregister) {
			return err
		}
		o.Log.Warn("registration expired; registering again", "worker", reg.WorkerID)
	}
	return ctx.Err()
}

// WorkAPI is the control plane as a session sees it: workerproto's four
// work-API calls. Lease may hold the call while there is no work; it and
// Heartbeat answer workerproto.ErrUnknownWorker when the registration is
// gone.
type WorkAPI interface {
	Register(ctx context.Context, req workerproto.RegisterRequest) (workerproto.RegisterResponse, error)
	Lease(ctx context.Context, workerID string, req workerproto.LeaseRequest) (workerproto.LeaseResponse, error)
	Heartbeat(ctx context.Context, workerID string, req workerproto.HeartbeatRequest) (workerproto.HeartbeatResponse, error)
	// Complete uploads an outcome of l, the session's attempt-th lease of it.
	Complete(ctx context.Context, l workerproto.Lease, attempt int, req workerproto.CompleteRequest) (workerproto.CompleteResponse, error)
}

// httpAPI is the work API over HTTP/JSON (Run's transport).
type httpAPI struct {
	server string
	client *httpx.RetryClient
}

func (h httpAPI) Register(ctx context.Context, req workerproto.RegisterRequest) (resp workerproto.RegisterResponse, err error) {
	if _, err = h.client.PostJSON(ctx, h.server+"/v1/workers/register", req, &resp); err != nil {
		err = fmt.Errorf("registering with %s: %w", h.server, err)
	}
	return resp, err
}

func (h httpAPI) Lease(ctx context.Context, workerID string, req workerproto.LeaseRequest) (resp workerproto.LeaseResponse, err error) {
	return resp, h.workerCall(ctx, workerID, "/lease", req, &resp)
}

func (h httpAPI) Heartbeat(ctx context.Context, workerID string, req workerproto.HeartbeatRequest) (resp workerproto.HeartbeatResponse, err error) {
	return resp, h.workerCall(ctx, workerID, "/heartbeat", req, &resp)
}

func (h httpAPI) workerCall(ctx context.Context, workerID, path string, req, resp any) error {
	status, err := h.client.PostJSON(ctx, h.server+"/v1/workers/"+workerID+path, req, resp)
	if status == http.StatusNotFound {
		return workerproto.ErrUnknownWorker
	}
	return err
}

// Complete echoes the lease's trace identity plus the worker's own as
// X-DNC-* headers, which stitch the upload into the job's timeline.
func (h httpAPI) Complete(ctx context.Context, l workerproto.Lease, attempt int, req workerproto.CompleteRequest) (resp workerproto.CompleteResponse, err error) {
	hdr := map[string]string{telemetry.HeaderWorkerID: req.WorkerID, telemetry.HeaderAttempt: strconv.Itoa(attempt)}
	if l.TraceID != "" {
		hdr[telemetry.HeaderTraceID] = l.TraceID
		hdr[telemetry.HeaderSpanID] = l.SpanID
	}
	status, err := h.client.PostJSONHeaders(ctx, h.server+"/v1/cells/"+l.Digest+"/complete", hdr, req, &resp)
	if err != nil {
		err = fmt.Errorf("status %d: %w", status, err)
	}
	return resp, err
}

// session is one registration's lifetime: a heartbeat loop, a lease loop,
// up to Capacity concurrent cell executions and as many uploads behind them.
type session struct {
	o   Options
	api WorkAPI
	reg workerproto.RegisterResponse

	ctx    context.Context
	cancel context.CancelCauseFunc

	mu sync.Mutex
	// active maps each held digest to its newest run's cancel. A revoked
	// cell can be leased to this session again while its old run is still
	// unwinding; the old run's cleanup then leaves the new entry alone.
	active map[string]*context.CancelCauseFunc
	// attempts counts how many times this session has been leased each
	// digest (a reassignment returning to the same worker); it rides on the
	// upload's X-DNC-Attempt header.
	attempts map[string]int

	// free holds the execution slots no cell is running on, each stamped
	// with when its last Run returned (zero: it has not run one). There are
	// Capacity slots in all, so giving one back can never block.
	free chan time.Time
	// uploads holds Capacity upload tokens; a cell takes one after Run
	// returns and before its slot goes back to free.
	uploads chan struct{}

	inflight sync.WaitGroup
	uploaded atomic.Uint64 // result uploads begun: the FreezeAfter budget
	frozen   atomic.Bool
}

func runSession(parent context.Context, api WorkAPI, o Options, reg workerproto.RegisterResponse) error {
	ctx, cancel := context.WithCancelCause(parent)
	defer cancel(nil)
	s := &session{
		o: o, api: api, reg: reg,
		ctx: ctx, cancel: cancel,
		active:   make(map[string]*context.CancelCauseFunc),
		attempts: make(map[string]int),
		free:     make(chan time.Time, o.Capacity),
		uploads:  make(chan struct{}, o.Capacity),
	}
	for i := 0; i < o.Capacity; i++ {
		s.free <- time.Time{}
	}
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		s.heartbeatLoop()
	}()
	err := s.leaseLoop()
	if errors.Is(err, errReregister) {
		cancel(errReregister) // abandon in-flight cells: the leases are gone
	}
	// Let in-flight cells finish (drain) or unwind (cancelled); a frozen
	// cell unwinds only when the parent context goes.
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-parent.Done():
	}
	cancel(nil)
	<-hbDone
	if err == nil {
		err = parent.Err()
	}
	return err
}

// activeDigests snapshots the cells currently held, for heartbeat
// cross-checking.
func (s *session) activeDigests() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.active))
	for d := range s.active {
		out = append(out, d)
	}
	return out
}

// heartbeatLoop beats at the server-dictated cadence, reporting held cells
// and abandoning any the server has revoked. ErrUnknownWorker ends the
// session toward re-registration; a transport failure is simply skipped —
// the TTL leaves roughly three beats of slack.
func (s *session) heartbeatLoop() {
	t := time.NewTicker(time.Duration(s.reg.HeartbeatMS) * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
		}
		resp, err := s.api.Heartbeat(s.ctx, s.reg.WorkerID,
			workerproto.HeartbeatRequest{Active: s.activeDigests()})
		if errors.Is(err, workerproto.ErrUnknownWorker) {
			s.cancel(errReregister)
			return
		}
		if err != nil {
			continue
		}
		if s.frozen.Load() {
			continue // a frozen worker's heartbeats land but nothing is processed
		}
		for _, digest := range resp.Revoked {
			s.abandon(digest)
		}
	}
}

// abandon cancels a revoked cell's execution; the goroutine sees the
// revocation cause and skips its upload.
func (s *session) abandon(digest string) {
	s.mu.Lock()
	cancel, ok := s.active[digest]
	s.mu.Unlock()
	if ok {
		s.o.Telemetry.LeasesRevoked.Inc()
		s.o.Log.Warn("lease revoked; abandoning", "worker", s.reg.WorkerID,
			"cell", digest, "span", telemetry.SpanID(digest))
		(*cancel)(errRevoked)
	}
}

// leaseLoop pulls work whenever a slot is free. It sleeps in two places,
// neither a timer: on the free slots while every one is running a cell, and
// inside the lease request while the server has nothing to grant (the
// server parks the call for up to one heartbeat period). Returns nil on
// drain or parent cancellation, errReregister on ErrUnknownWorker.
func (s *session) leaseLoop() error {
	max := cap(s.free)
	if s.o.LeaseBatch > 0 && max > s.o.LeaseBatch {
		max = s.o.LeaseBatch
	}
	slots := make([]time.Time, 0, max)
	for {
		// Slots the last request found no cell for go back first.
		for _, idleSince := range slots {
			s.free <- idleSince
		}
		slots = slots[:0]
		if err := s.ctx.Err(); err != nil {
			if cause := context.Cause(s.ctx); cause != nil && !errors.Is(cause, context.Canceled) {
				return cause
			}
			return nil
		}
		// Wait for one slot, then take whatever else is free right now.
		select {
		case idleSince := <-s.free:
			slots = append(slots, idleSince)
		case <-s.ctx.Done():
			continue
		}
		if s.frozen.Load() {
			<-s.ctx.Done() // a frozen session leases nothing more and never thaws
			continue
		}
	more:
		for len(slots) < max {
			select {
			case idleSince := <-s.free:
				slots = append(slots, idleSince)
			default:
				break more
			}
		}
		resp, err := s.api.Lease(s.ctx, s.reg.WorkerID, workerproto.LeaseRequest{Max: len(slots)})
		if errors.Is(err, workerproto.ErrUnknownWorker) {
			return errReregister
		}
		if err != nil {
			s.pause()
			continue
		}
		if resp.Draining {
			s.o.Log.Info("server draining; finishing held cells", "worker", s.reg.WorkerID,
				"held", len(s.activeDigests()))
			return nil
		}
		if len(resp.Leases) > len(slots) {
			s.o.Log.Error("server granted more cells than requested; leaving the excess to expire",
				"worker", s.reg.WorkerID, "granted", len(resp.Leases), "requested", len(slots))
			resp.Leases = resp.Leases[:len(slots)]
		}
		for i, l := range resp.Leases {
			s.startCell(l, slots[i])
		}
		slots = append(slots[:0], slots[len(resp.Leases):]...)
	}
}

// pause waits out PollInterval after a failed request, or until the session
// ends.
func (s *session) pause() {
	select {
	case <-s.ctx.Done():
	case <-time.After(s.o.PollInterval):
	}
}

// startCell launches one leased cell on its own goroutine, on the slot the
// lease loop took for it, with its own cancel (so a heartbeat revocation
// aborts just that cell). The cell stays in active — heartbeats report it,
// a revocation can reach it — until its upload has been answered.
func (s *session) startCell(l workerproto.Lease, idleSince time.Time) {
	cctx, ccancel := context.WithCancelCause(s.ctx)
	s.mu.Lock()
	s.active[l.Digest] = &ccancel
	s.attempts[l.Digest]++
	s.mu.Unlock()
	s.inflight.Add(1)
	go func() {
		defer s.inflight.Done()
		s.runCell(cctx, l, idleSince)
		s.mu.Lock()
		if s.active[l.Digest] == &ccancel {
			delete(s.active, l.Digest)
		}
		s.mu.Unlock()
		ccancel(nil)
	}()
}

// runCell takes one lease through the pipeline: execute on its slot, take
// an upload token, give the slot back, upload. The token comes first so that
// cells whose uploads the server is not answering pile up on the slots, not
// beside them: the worker holds at most 2×Capacity leases. A cell cancelled
// at any stage — revoked, or the session is over — uploads nothing (or
// abandons the upload in flight): the server has reassigned, or no longer
// wants, the cell.
func (s *session) runCell(ctx context.Context, l workerproto.Lease, idleSince time.Time) {
	res, err := s.execute(ctx, l, idleSince)
	ranUntil := time.Now()
	if ctx.Err() == nil && err == nil && s.freezes(l) {
		<-s.ctx.Done() // wedged on its slot, lease held, until the session ends
		return
	}
	select {
	case s.uploads <- struct{}{}:
		defer func() { <-s.uploads }()
	case <-ctx.Done():
	}
	s.free <- ranUntil
	if ctx.Err() != nil {
		s.o.Telemetry.CellsAbandoned.Inc()
		return
	}
	s.complete(ctx, l, res, err)
}

// execute runs the lease's cell, or refuses a lease whose spec does not
// match its content address.
func (s *session) execute(ctx context.Context, l workerproto.Lease, idleSince time.Time) (*runner.ResultJSON, error) {
	if !l.Spec.Valid() || l.Spec.Digest() != l.Digest {
		return nil, fmt.Errorf("lease %.12s carries an invalid or mismatched spec", l.Digest)
	}
	s.o.Telemetry.execStart()
	start := time.Now()
	if !idleSince.IsZero() {
		s.o.Telemetry.SlotIdle.ObserveDuration(start.Sub(idleSince))
	}
	res, err := s.o.Run(ctx, l.Spec)
	s.o.Telemetry.ExecSeconds.ObserveDuration(time.Since(start))
	s.o.Telemetry.execEnd()
	return res, err
}

// freezes is the FreezeAfter chaos hook: it counts a result upload about to
// begin and reports whether the budget is spent — result computed, upload
// never sent, lease held until the server's watchdog acts.
func (s *session) freezes(l workerproto.Lease) bool {
	if s.o.FreezeAfter <= 0 || s.uploaded.Add(1) <= uint64(s.o.FreezeAfter) {
		return false
	}
	if s.frozen.CompareAndSwap(false, true) {
		s.o.Log.Warn("FROZEN (chaos hook): holding lease, heartbeats continue",
			"worker", s.reg.WorkerID, "cell", l.Digest)
	}
	return true
}

// complete uploads one outcome under the cell's content address. Retries
// inside the client are safe — the server deduplicates bit-identical
// results — and a rejected upload is logged and dropped: the lease will
// expire and the cell re-run elsewhere. ctx is the cell's: a revocation or
// the end of the session abandons an upload in flight, which to the server
// is a lease that finished late or never.
func (s *session) complete(ctx context.Context, l workerproto.Lease, res *runner.ResultJSON, execErr error) {
	req := workerproto.CompleteRequest{WorkerID: s.reg.WorkerID, Spec: l.Spec, Result: res}
	if execErr != nil {
		req.Error = execErr.Error()
		req.Transient = errors.Is(execErr, context.DeadlineExceeded)
		s.o.Telemetry.CellsFailed.Inc()
		s.o.Telemetry.recordError(s.reg.WorkerID, l.Digest, l.Key, req.Error)
		s.o.Log.Error("cell execution failed", "worker", s.reg.WorkerID,
			"cell", l.Digest, "key", l.Key, "err", req.Error, "transient", req.Transient)
	}
	s.mu.Lock()
	attempt := s.attempts[l.Digest]
	s.mu.Unlock()
	resp, err := s.api.Complete(ctx, l, attempt, req)
	if err != nil && ctx.Err() != nil {
		s.o.Telemetry.CellsAbandoned.Inc()
		return
	}
	if err != nil {
		s.o.Telemetry.UploadRejected.Inc()
		s.o.Telemetry.recordError(s.reg.WorkerID, l.Digest, l.Key, "upload failed: "+err.Error())
		s.o.Log.Error("upload failed", "worker", s.reg.WorkerID, "cell", l.Digest,
			"key", l.Key, "err", err.Error())
		return
	}
	if res != nil {
		s.o.Telemetry.CellsCompleted.Inc()
	}
	s.o.Log.Info("cell uploaded", "worker", s.reg.WorkerID, "cell", l.Digest,
		"span", telemetry.SpanID(l.Digest), "trace", l.TraceID,
		"attempt", attempt, "status", resp.Status)
}
