package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"dnc/internal/httpx"
	"dnc/internal/service/workerproto"
	"dnc/internal/sim/runner"
	"dnc/internal/telemetry"
)

// maxSpecBytes bounds a submission body; specs are small JSON documents
// and anything larger is a client error or an attack.
const maxSpecBytes = 1 << 20

// maxCompleteBytes bounds a worker's result upload: a full ResultJSON with
// per-core metrics and the observability snapshot runs to a few hundred KB
// at most, so 16 MiB is generous without letting a hostile client stream
// unbounded bytes into the decoder.
const maxCompleteBytes = 16 << 20

// handler assembles the API mux:
//
//	POST /v1/jobs              — submit a sweep spec; 202 with the job record
//	GET  /v1/jobs              — list all jobs
//	GET  /v1/jobs/{id}         — one job's status
//	GET  /v1/jobs/{id}/results — stream outcomes + result bodies as JSONL
//	GET  /v1/query             — aggregate metrics from the columnar result store
//	GET  /v1/deadletters       — the poisoned-cell list
//	GET  /v1/healthz           — liveness: {"status":"ok"}, or 503 draining
//	GET  /metrics              — every operational number (Prometheus text)
//
// plus the worker-plane work API (see internal/service/workerproto):
//
//	POST /v1/workers/register        — a dncworker announces itself
//	POST /v1/workers/{id}/lease      — pull a batch of leased cells
//	POST /v1/workers/{id}/heartbeat  — renew leases; learn revocations
//	POST /v1/cells/{digest}/complete — upload a verified result or failure
//
// and pprof under /debug/pprof/. The service, lease-plane and sweep stats
// are served once, on /metrics.
func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/deadletters", s.handleDeadLetters)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/workers/register", s.handleWorkerRegister)
	mux.HandleFunc("POST /v1/workers/{id}/lease", s.handleWorkerLease)
	mux.HandleFunc("POST /v1/workers/{id}/heartbeat", s.handleWorkerHeartbeat)
	mux.HandleFunc("POST /v1/cells/{digest}/complete", s.handleCellComplete)
	httpx.HandlePprof(mux)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := decodeBody(w, r, maxSpecBytes, &spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed spec: %w", err))
		return
	}
	st, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Backpressure: tell the client when to come back, scaled to the
		// backlog (one slot per queued job is a crude but monotone guess)
		// and equal-jittered so a burst of rejected clients spreads out
		// instead of stampeding back in lockstep.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.queue.len(), retryAfterRand)))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "30")
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		w.Header().Set("Location", "/v1/jobs/"+st.ID)
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// resultLine is one JSONL line of a results stream: the outcome plus the
// cached result body (nil for dead or failed cells, or if the cache entry
// has been lost — the digest still identifies what the result was).
type resultLine struct {
	Outcome
	Result *runner.ResultJSON `json:"result,omitempty"`
}

// handleResults streams a job's outcomes as JSONL, following a running job
// live: lines are flushed as cells finish and the stream ends when the job
// reaches a terminal state (or re-queues on drain, or the client leaves).
// Slow clients hold a connection but no lock — each line is fetched and
// encoded independently.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		outs, state, changed := j.outcomesFrom(next)
		for _, o := range outs {
			line := resultLine{Outcome: o}
			if o.ResultDigest != "" {
				if e, ok := s.cache.get(o.Digest); ok {
					line.Result = e.Result
				}
			}
			if err := enc.Encode(line); err != nil {
				return // client gone
			}
		}
		next += len(outs)
		if flusher != nil && len(outs) > 0 {
			flusher.Flush()
		}
		if state == JobDone || state == JobFailed {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return // draining: deliver what exists, end the stream
		case <-changed:
		}
	}
}

func (s *Server) handleDeadLetters(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.DeadLetters())
}

// handleHealthz is liveness only: ok while serving, draining (with a 503)
// during shutdown, so load balancers stop routing before the listener
// closes. Every operational number is on /metrics.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves the Prometheus text exposition (404 when telemetry
// is disabled), each series read at scrape time from its source.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.tel == nil {
		writeError(w, http.StatusNotFound, errors.New("telemetry disabled"))
		return
	}
	s.tel.reg.Handler().ServeHTTP(w, r)
}

// handleJobTrace exports one job's telemetry timeline as Chrome
// trace_event JSON (open in Perfetto): the job lifecycle plus every cell's
// phase and attempt spans, reassignments visible as revoked attempts.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.rec == nil {
		writeError(w, http.StatusNotFound, errors.New("telemetry disabled"))
		return
	}
	if _, ok := s.Job(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if ok, _ := s.rec.WriteJobPerfetto(w, id); !ok {
		// Known job, no timeline yet (recovered before any event).
		writeError(w, http.StatusNotFound, fmt.Errorf("no timeline for job %q yet", id))
	}
}

// retryAfterRand is the jitter source seam (tests pin it).
var retryAfterRand = rand.Float64

// retryAfterSeconds converts the queue backlog into an equal-jittered
// Retry-After: half the backlog-scaled estimate guaranteed, half uniformly
// random, never below one second — the same equal jitter as
// httpx.RetryClient's retry delays, for the same reason (no synchronized
// stampedes).
func retryAfterSeconds(backlog int, rnd func() float64) int {
	base := 1 + backlog
	half := float64(base) / 2
	ra := int(half + rnd()*half + 0.5)
	if ra < 1 {
		ra = 1
	}
	return ra
}

// ---- worker-plane handlers ----

func decodeBody(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	var req workerproto.RegisterRequest
	if err := decodeBody(w, r, maxSpecBytes, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed register request: %w", err))
		return
	}
	if s.isDraining() {
		w.Header().Set("Retry-After", "30")
		writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	writeJSON(w, http.StatusOK, s.dispatch.register(req.Name, req.Capacity))
}

// remoteWorkerID is a work-API call's {id} path segment. The in-process
// client's ID is not reachable over HTTP: it maps to "", which no worker
// holds, so the call answers 404.
func remoteWorkerID(r *http.Request) string {
	if id := r.PathValue("id"); id != inProcessID {
		return id
	}
	return ""
}

// handleWorkerLease answers with work as soon as there is any for this
// worker: with nothing pending the call stays parked in dispatcher.lease
// (long poll) and ends on new work, on drain, when the client goes away, or
// after one heartbeat period with an empty grant.
func (s *Server) handleWorkerLease(w http.ResponseWriter, r *http.Request) {
	var req workerproto.LeaseRequest
	if err := decodeBody(w, r, maxSpecBytes, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed lease request: %w", err))
		return
	}
	// net/http watches the connection for the client going away only once
	// the request body has been read to its end, and the decoder stops at the
	// end of the JSON value.
	io.Copy(io.Discard, http.MaxBytesReader(w, r.Body, maxSpecBytes))
	start := time.Now()
	resp, err := s.lease(r.Context(), remoteWorkerID(r), req.Max)
	if s.tel != nil {
		s.tel.leaseWait.ObserveDuration(time.Since(start))
	}
	if errors.Is(err, workerproto.ErrUnknownWorker) {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req workerproto.HeartbeatRequest
	if err := decodeBody(w, r, maxSpecBytes, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed heartbeat: %w", err))
		return
	}
	revoked, err := s.dispatch.heartbeat(remoteWorkerID(r), req.Active)
	if errors.Is(err, workerproto.ErrUnknownWorker) {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, workerproto.HeartbeatResponse{Revoked: revoked})
}

func (s *Server) handleCellComplete(w http.ResponseWriter, r *http.Request) {
	var req workerproto.CompleteRequest
	if err := decodeBody(w, r, maxCompleteBytes, &req); err != nil {
		// A torn upload (connection cut mid-body) surfaces here as a decode
		// error; nothing was admitted and the worker's retry re-sends.
		s.dispatch.countUpload("rejected")
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed completion: %w", err))
		return
	}
	if s.tel != nil && r.ContentLength > 0 {
		s.tel.uploadSize.Observe(uint64(r.ContentLength))
	}
	// The worker echoes the lease's trace identity (plus its own ID) as
	// X-DNC-* headers; logging them here is what stitches a worker-side
	// attempt to the server-side timeline in the text logs.
	s.log.Debug("completion upload",
		"digest", r.PathValue("digest"),
		"trace", r.Header.Get(telemetry.HeaderTraceID),
		"span", r.Header.Get(telemetry.HeaderSpanID),
		"worker", r.Header.Get(telemetry.HeaderWorkerID),
		"attempt", r.Header.Get(telemetry.HeaderAttempt))
	resp, code, err := s.completeCell(r.PathValue("digest"), req)
	if err != nil {
		writeError(w, code, err)
		return
	}
	writeJSON(w, code, resp)
}
