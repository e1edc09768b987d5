package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dnc/internal/httpx"
	"dnc/internal/service"
	"dnc/internal/service/worker"
	"dnc/internal/service/workerproto"
	"dnc/internal/sim"
	"dnc/internal/sim/runner"
)

// The service workloads' fixed shape: what one 2-CPU host gives dncserved.
const (
	svcWorkers = 2 // worker.Run goroutines, capacity 1 each
	svcClients = 2 // closed-loop HTTP clients: sweep clients wait for their job
)

var svcDesigns = []string{"baseline", dncDesign}

// svc is an in-process dncserved with its workers, driven over loopback
// HTTP exactly as separate processes would drive it.
type svc struct {
	b       *bench
	srv     *service.Server
	base    string
	http    *http.Client
	stop    context.CancelFunc
	workers sync.WaitGroup
	retries atomic.Int64

	mu       sync.Mutex
	ids      map[int]string    // job index → job ID, from cold jobs
	admitted []admittedCell    // every cell a cold job streamed, in arrival order
	digests  map[string]string // cell key → result digest, from cold jobs
	traceIDs []string          // cold jobs submitted during the traced rounds
	blocked  time.Duration     // client time inside HTTP calls and body reads
	inJobs   time.Duration     // client time inside jobs and queries
}

type admittedCell struct {
	key          string
	resultDigest string
}

func startService(b *bench) (*svc, error) {
	s := &svc{
		b:       b,
		http:    &http.Client{Timeout: 60 * time.Second},
		ids:     map[int]string{},
		digests: map[string]string{},
	}
	srv, err := service.New(service.Config{
		DataDir: filepath.Join(b.cfg.tmp, "data"), Workers: 2, CellJobs: 2,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	s.srv, s.base = srv, "http://"+srv.Addr()
	ctx, cancel := context.WithCancel(context.Background())
	s.stop = cancel
	for i := 0; i < svcWorkers; i++ {
		opts := worker.Options{
			Server: s.base, Name: fmt.Sprintf("bench-%d", i),
			Capacity: 1, PollInterval: 5 * time.Millisecond,
		}
		if b.cfg.traced {
			// Spans from a wrapper on the execution seam and on the worker's
			// HTTP transport; both do what the defaults do, plus a clock read.
			track := fmt.Sprintf("worker-%d", i)
			opts.Run = func(ctx context.Context, spec workerproto.CellSpec) (*runner.ResultJSON, error) {
				t := time.Now()
				res, err := sim.RunChecked(ctx, spec.RunConfig())
				b.span(0, track, "worker.Run", t, time.Now())
				if err != nil {
					return nil, err
				}
				return runner.NewResultJSON(res), nil
			}
			opts.Client = &httpx.RetryClient{
				C:       &http.Client{Transport: spanTransport{b, track}},
				Retries: 3,
				OnRetry: func(int) { s.retries.Add(1) },
			}
		}
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			// Run returns ctx's error on shutdown; anything earlier shows as
			// workers_live staying below svcWorkers, which start-up reports.
			_ = worker.Run(ctx, opts)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().WorkersLive < svcWorkers {
		if time.Now().After(deadline) {
			s.shutdown()
			return nil, fmt.Errorf("only %d of %d workers registered", srv.Stats().WorkersLive, svcWorkers)
		}
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

// spanTransport records one span per worker HTTP request.
type spanTransport struct {
	b     *bench
	track string
}

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(r)
	t.b.span(0, t.track, "worker http", start, time.Now())
	return resp, err
}

// shutdown stops the workers and drains the server; both have ended when it
// returns.
func (s *svc) shutdown() error {
	s.stop()
	s.workers.Wait()
	// A connection the transport dialled and never used would hold the
	// server's shutdown for the 5 s net/http gives a new connection.
	s.http.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.srv.Drain(ctx)
}

// quiesce waits until no job is queued or running, so every done.json is on
// disk (the results stream closes before the job's terminal record lands).
func (s *svc) quiesce() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.srv.Stats()
		if st.Queued == 0 && st.Running == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("service did not go idle")
		}
		time.Sleep(time.Millisecond)
	}
}

// jobSpec is the j-th 8-cell job: two presets × two designs × two seeds no
// other job of this run uses.
func (s *svc) jobSpec(j int) service.Spec {
	w := s.b.cfg.sizes.sweepWindow
	return service.Spec{
		Workloads: cellPresets, Designs: svcDesigns, Cores: cellCores,
		WarmCycles: w, MeasureCycles: w,
		Seeds: []int64{s.b.simSeed(2 * j), s.b.simSeed(2*j + 1)},
	}
}

func specCells(spec service.Spec) int {
	return len(spec.Workloads) * len(spec.Designs) * len(spec.Seeds)
}

// jobKind is what a client does with job j.
type jobKind int

const (
	// coldJob submits a never-seen spec and follows its results stream live.
	coldJob jobKind = iota
	// rereadJob reads the finished cold job's results stream again: the same
	// lines, from the cache, which must carry the digests the cold job
	// streamed.
	rereadJob
	// resubmitJob submits job j's spec again and streams at once, as the
	// issue sketched the warm loop: every cell must be a cache hit with the
	// cold digest. Its time is not steady enough to gate anything (README.md,
	// finding 2), so it runs after the timed rounds and is reported beside
	// them.
	resubmitJob
)

// streamLine is one JSONL line of /v1/jobs/{id}/results.
type streamLine struct {
	service.Outcome
	Result *resultBody `json:"result,omitempty"`
}

// blockedReader accounts the time its reader spends inside Read, which for
// a response body is time waiting on the server.
type blockedReader struct {
	r       io.Reader
	blocked time.Duration
}

func (r *blockedReader) Read(p []byte) (int, error) {
	t := time.Now()
	n, err := r.r.Read(p)
	r.blocked += time.Since(t)
	return n, err
}

// jobTimes is one job as its client saw it.
type jobTimes struct {
	latencyMs float64 // first request sent → last result line verified; 0 = the job failed
	verified  int     // cells that passed every check
}

// job runs job j as its kind says and verifies every streamed line. The job
// and each of its cells count as operations.
func (s *svc) job(parent int, track string, kind jobKind, j int) jobTimes {
	spec := s.jobSpec(j)
	var blocked time.Duration
	t0 := time.Now()
	defer func() {
		s.mu.Lock()
		s.blocked += blocked
		s.inJobs += time.Since(t0)
		s.mu.Unlock()
	}()
	jid := s.b.startSpan(parent, track, "job")
	defer s.b.endSpan(jid)
	fail := func(err error) jobTimes {
		s.b.op(err)
		return jobTimes{}
	}

	s.mu.Lock()
	id := s.ids[j]
	s.mu.Unlock()
	if kind != rereadJob {
		st, err := s.submit(spec)
		blocked += time.Since(t0)
		if err != nil {
			return fail(err)
		}
		s.b.span(jid, track, "POST /v1/jobs", t0, time.Now())
		id = st.ID
		if kind == coldJob {
			tracing := s.b.isTracing()
			s.mu.Lock()
			s.ids[j] = id
			if tracing {
				s.traceIDs = append(s.traceIDs, id)
			}
			s.mu.Unlock()
		}
	}

	tGet := time.Now()
	resp, err := s.http.Get(s.base + "/v1/jobs/" + id + "/results")
	blocked += time.Since(tGet) // the headers arrive with the first line
	if err != nil {
		return fail(fmt.Errorf("results: %w", err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail(fmt.Errorf("results of %s: status %d", id, resp.StatusCode))
	}
	br := &blockedReader{r: resp.Body}
	dec := json.NewDecoder(br)
	seen := map[string]bool{}
	verified := 0
	var tFirst, tLast time.Time
	for {
		var line streamLine
		if err := dec.Decode(&line); err == io.EOF {
			break
		} else if err != nil {
			return fail(fmt.Errorf("results stream of %s: %w", id, err))
		}
		tLast = time.Now()
		if tFirst.IsZero() {
			tFirst = tLast
		}
		err := s.checkLine(&line, seen, kind)
		s.b.op(err)
		if err == nil {
			verified++
		}
	}
	tEOF := time.Now()
	blocked += br.blocked
	if want := specCells(spec); len(seen) != want {
		return fail(fmt.Errorf("job %s streamed %d cells, want %d", id, len(seen), want))
	}
	s.b.op(nil)
	s.b.span(jid, track, "first result", t0, tFirst)
	if kind == resubmitJob {
		s.b.span(jid, track, "stream tail (resubmitted)", tLast, tEOF)
	} else {
		s.b.span(jid, track, "stream tail", tLast, tEOF)
	}
	// The last line was verified when the stream was found closed: a job is
	// not known complete before that.
	return jobTimes{latencyMs: millis(tEOF.Sub(t0)), verified: verified}
}

// submit POSTs a spec; anything but 202 (a 429 under backpressure, say) is
// an error.
func (s *svc) submit(spec service.Spec) (service.JobStatus, error) {
	var st service.JobStatus
	body, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	resp, err := s.http.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, fmt.Errorf("submit: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 200)) // best effort: the status is the error
		return st, fmt.Errorf("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// checkLine verifies one streamed cell.
func (s *svc) checkLine(line *streamLine, seen map[string]bool, kind jobKind) error {
	if seen[line.Key] {
		return fmt.Errorf("cell %s streamed twice", line.Key)
	}
	seen[line.Key] = true
	switch line.Status {
	case service.OutcomeSimulated, service.OutcomeCached, service.OutcomeResumed:
	default:
		return fmt.Errorf("cell %s: %s: %s", line.Key, line.Status, line.Error)
	}
	if kind == coldJob {
		// The server admitted the cell, whatever the checks below say of
		// the copy that reached this client.
		s.mu.Lock()
		s.digests[line.Key] = line.ResultDigest
		s.admitted = append(s.admitted, admittedCell{line.Key, line.ResultDigest})
		s.mu.Unlock()
	}
	if err := s.b.check(line.Result); err != nil {
		return fmt.Errorf("cell %s: %w", line.Key, err)
	}
	if got := service.ResultDigest(line.Result); got != line.ResultDigest {
		return fmt.Errorf("cell %s: body digests to %.12s, the stream says %.12s", line.Key, got, line.ResultDigest)
	}
	if kind == coldJob {
		return nil
	}
	if kind == resubmitJob && line.Status != service.OutcomeCached {
		return fmt.Errorf("cell %s: %s on a resubmitted job, want cached", line.Key, line.Status)
	}
	s.mu.Lock()
	want := s.digests[line.Key]
	s.mu.Unlock()
	if want != line.ResultDigest {
		return fmt.Errorf("cell %s: digest %.12s, the cold job streamed %.12s", line.Key, line.ResultDigest, want)
	}
	return nil
}

// query times one GET /v1/query?metric=ipc and checks that its groups
// account for wantCells cells.
func (s *svc) query(parent int, track string, wantCells int) (ms float64) {
	t := time.Now()
	resp, err := s.http.Get(s.base + "/v1/query?metric=ipc")
	var out struct {
		Groups []struct {
			N int `json:"n"`
		} `json:"groups"`
	}
	if err == nil {
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("query: status %d", resp.StatusCode)
		} else {
			err = json.NewDecoder(resp.Body).Decode(&out)
		}
		resp.Body.Close()
	}
	end := time.Now()
	s.mu.Lock()
	s.blocked += end.Sub(t)
	s.inJobs += end.Sub(t)
	s.mu.Unlock()
	s.b.span(parent, track, "GET /v1/query", t, end)
	if err == nil {
		n := 0
		for _, g := range out.Groups {
			n += g.N
		}
		if n != wantCells {
			err = fmt.Errorf("query: groups count %d cells, %d were admitted", n, wantCells)
		}
	}
	s.b.op(err)
	return millis(end.Sub(t))
}

// verifyDirect re-simulates admitted cells with sim.RunChecked and requires
// the service's digest: one cell in every, spread over as many goroutines
// as there were workers. It returns the mean direct run time in ms.
func (s *svc) verifyDirect(every int) float64 {
	var wg sync.WaitGroup
	var total atomic.Int64
	picked := 0
	next := make(chan admittedCell)
	for g := 0; g < svcWorkers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				spec, ok := workerproto.ParseKey(c.key)
				if !ok {
					s.b.op(fmt.Errorf("direct check: unparsable cell key %q", c.key))
					continue
				}
				t := time.Now()
				res, err := sim.RunChecked(context.Background(), spec.RunConfig())
				total.Add(int64(time.Since(t)))
				if err == nil {
					if got := service.ResultDigest(runner.NewResultJSON(res)); got != c.resultDigest {
						err = fmt.Errorf("direct check: %s: sim.RunChecked digests to %.12s, the service served %.12s",
							c.key, got, c.resultDigest)
					}
				}
				s.b.op(err)
			}
		}()
	}
	for i, c := range s.admitted {
		if i%every == 0 {
			next <- c
			picked++
		}
	}
	close(next)
	wg.Wait()
	return ratio(millis(time.Duration(total.Load())), float64(picked))
}

// dirBytes is a data directory's size by what wrote it.
type dirBytes struct {
	cache, store, journal, jobfile, other int64
	jobs                                  int
}

func (d dirBytes) total() int64 { return d.cache + d.store + d.journal + d.jobfile + d.other }

func (s *svc) dataDir() (dirBytes, error) {
	var d dirBytes
	err := filepath.WalkDir(filepath.Join(s.b.cfg.tmp, "data"), func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		fi, err := e.Info()
		if err != nil {
			return err
		}
		switch e.Name() {
		case "cache.jsonl":
			d.cache += fi.Size()
		case "store.dncr":
			d.store += fi.Size()
		case "journal.jsonl":
			d.journal += fi.Size()
		case "spec.json":
			d.jobs++
			d.jobfile += fi.Size()
		case "done.json":
			d.jobfile += fi.Size()
		default:
			d.other += fi.Size()
		}
		return nil
	})
	return d, err
}

// scrape reads the server's /metrics into a name → value map (unlabelled
// series only, which is all this benchmark reads).
func (s *svc) scrape() (map[string]float64, error) {
	resp, err := s.http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// serverPhases fetches each traced cold job's own timeline from
// /v1/jobs/{id}/trace and returns, per simulated cell, the ms it spent in
// the server's queue-wait, execute and verify+admit phases.
func (s *svc) serverPhases() (queue, exec, admit []float64, err error) {
	for _, id := range s.traceIDs {
		resp, err := s.http.Get(s.base + "/v1/jobs/" + id + "/trace")
		if err != nil {
			return nil, nil, nil, err
		}
		var tr struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Dur  float64 `json:"dur"`
				Pid  int     `json:"pid"`
			} `json:"traceEvents"`
		}
		err = json.NewDecoder(resp.Body).Decode(&tr)
		resp.Body.Close()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("trace of %s: %w", id, err)
		}
		admitBy := map[int]float64{}
		for _, e := range tr.TraceEvents {
			switch e.Name {
			case "queue-wait":
				queue = append(queue, e.Dur/1000)
			case "execute":
				exec = append(exec, e.Dur/1000)
			case "verify", "admit":
				admitBy[e.Pid] += e.Dur / 1000
			}
		}
		for _, v := range admitBy {
			admit = append(admit, v)
		}
	}
	return queue, exec, admit, nil
}

// runService is both service workloads.
//
// Cold: every job is new, so every cell is simulated by a worker, verified
// and written three times.
//
// Warm: set-up fills the cache and the store with cold jobs. In a timed
// round each client reads its share of those jobs back, one after another:
// stream the finished job's results, verify that every digest is the cold
// one, then one query over the store. After the timed rounds the clients
// resubmit every spec (every cell must be a cache hit with the cold digest);
// that round is checked and reported but gates nothing, because on the
// reference host its time is set by a race with the 50 ms results poll and
// by what creating the job's three files happens to cost (README.md,
// finding 2).
func runService(b *bench, warm bool) error {
	sz := b.cfg.sizes
	b.buildPrograms(cellPresets)
	t0 := time.Now()
	s, err := startService(b)
	if err != nil {
		return err
	}
	live := true
	defer func() {
		if live {
			s.shutdown()
		}
	}()
	// clients runs fn(c) on every client at once and waits for all of them.
	clients := func(fn func(c int)) {
		var wg sync.WaitGroup
		for c := 0; c < svcClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(c)
			}()
		}
		wg.Wait()
	}
	// share calls fn for every fill job that is client c's.
	share := func(c int, fn func(j int)) {
		for j := c; j < sz.fillJobs; j += svcClients {
			fn(j)
		}
	}
	var fill dirBytes
	var base map[string]float64 // /metrics before the phase service.cells_* count over
	if warm {
		clients(func(c int) { share(c, func(j int) { s.job(0, "", coldJob, j) }) })
		if err := s.quiesce(); err != nil {
			return err
		}
		if fill, err = s.dataDir(); err != nil {
			return err
		}
		if base, err = s.scrape(); err != nil {
			return err
		}
	}
	b.setupOnce = time.Since(t0)
	filled := len(s.admitted)

	// roundOf is one round: every client at once, each doing its jobs of the
	// given kind one after another, and after each job of a warm kind one
	// query.
	roundOf := func(i int, kind jobKind) roundSample {
		var r roundSample
		var mu sync.Mutex
		rid := b.startSpan(0, "rounds", fmt.Sprintf("round %d", i))
		t := time.Now()
		clients(func(c int) {
			track := fmt.Sprintf("client-%d", c)
			one := func(j int) {
				jt := s.job(rid, track, kind, j)
				var queryMs float64
				if kind != coldJob {
					queryMs = s.query(rid, track, filled)
				}
				mu.Lock()
				defer mu.Unlock()
				if queryMs > 0 {
					r.query = append(r.query, queryMs)
				}
				r.verified += jt.verified
				if jt.latencyMs > 0 {
					r.lat = append(r.lat, jt.latencyMs)
				}
			}
			if kind != coldJob {
				share(c, one)
				return
			}
			first := (i*svcClients + c) * sz.jobsPerRound
			for k := 0; k < sz.jobsPerRound; k++ {
				one(first + k)
			}
		})
		r.wall = time.Since(t).Seconds()
		b.endSpan(rid)
		return r
	}
	round := func(i int) (roundSample, error) {
		if !warm && base == nil && b.isTracing() {
			var err error
			if base, err = s.scrape(); err != nil {
				return roundSample{}, err
			}
		}
		if warm {
			return roundOf(i, rereadJob), nil
		}
		return roundOf(i, coldJob), nil
	}
	plain, traced, err := measure(b, round)
	if err != nil {
		return err
	}
	var resubmitted []float64 // ms per resubmitted job
	if warm {
		n := 1
		if b.cfg.traced {
			n = sz.resubmitRounds
		}
		b.setTracing(b.cfg.traced)
		for i := 0; i < n; i++ {
			resubmitted = append(resubmitted, roundOf(b.rounds+i, resubmitJob).lat...)
		}
		b.setTracing(false)
		polled := 0
		for _, ms := range resubmitted {
			if ms > 40 {
				polled++
			}
		}
		b.note("resubmitting the %d filled specs after the timed rounds: job p50 %.2f ms, p99 %.1f ms; %d of %d jobs took over 40 ms (the 50 ms results poll)",
			sz.fillJobs, percentile(resubmitted, 50), percentile(resubmitted, 99), polled, len(resubmitted))
	}
	if !warm {
		// Cold jobs do not query. The store is queried here, once the timed
		// rounds are over: its groups must count every cell admitted. The
		// traced run repeats the query to time it.
		n := 1
		if b.cfg.traced {
			n = sz.queries
		}
		b.setTracing(b.cfg.traced)
		for q := 0; q < n; q++ {
			s.query(0, "client-0", len(s.admitted))
		}
		b.setTracing(false)
	}

	rate := b.setRoundMetrics(plain, cellCores*float64(2*sz.sweepWindow))
	b.note("generator lateness: the %d clients spent %.1f%% of their time outside HTTP calls (decoding and checking)",
		svcClients, 100*s.clientBusyShare())

	var tracedWall float64
	var after map[string]float64
	var queue, exec, admit []float64
	if b.cfg.traced {
		for _, r := range traced {
			tracedWall += r.wall
		}
		if after, err = s.scrape(); err != nil {
			return err
		}
		if queue, exec, admit, err = s.serverPhases(); err != nil {
			return err
		}
	}
	if err := s.quiesce(); err != nil {
		return err
	}
	live = false
	if err := s.shutdown(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	data, err := s.dataDir()
	if err != nil {
		return err
	}
	if warm {
		// Resubmissions add only job records; the cell payload is the fill's.
		data.cache, data.store, data.journal = fill.cache, fill.store, fill.journal
		b.m.set("data_bytes_per_cell", ratio(float64(fill.total()), float64(filled)), 0)
	} else {
		b.m.set("data_bytes_per_cell", ratio(float64(data.total()), float64(len(s.admitted))), 0)
	}
	every := sz.verifyEvery
	if b.cfg.traced {
		every = 1
	}
	directMs := s.verifyDirect(every)
	if !b.cfg.traced {
		return nil
	}

	tracedRate := setTracedRoundMetrics(b.m, traced)
	b.m.set("bench.trace_overhead_ratio", ratio(tracedRate, rate), len(traced))
	tail := "stream tail"
	if warm {
		// The tail latency and the stream's tail are the resubmitted jobs':
		// the timed rounds open their streams on finished jobs, which the
		// results poll never delays.
		tail = "stream tail (resubmitted)"
		b.m.set("bench.job_latency_ms_p99", percentile(resubmitted, 99), len(resubmitted))
	}
	for metric, name := range map[string]string{
		"service.submit_ms_p50":       "POST /v1/jobs",
		"service.first_result_ms_p50": "first result",
		"service.stream_tail_ms_p50":  tail,
		"service.query_ms_p50":        "GET /v1/query",
		"worker.exec_ms_p50":          "worker.Run",
	} {
		d := b.spanDurations(name)
		b.m.set(metric, median(d), len(d))
	}
	b.m.set("service.queue_wait_ms_p50", median(queue), len(queue))
	b.m.set("service.exec_ms_p50", median(exec), len(exec))
	b.m.set("service.verify_admit_ms_p50", median(admit), len(admit))
	workerSim := sum(b.spanDurations("worker.Run")) / 1000
	workerHTTP := sum(b.spanDurations("worker http")) / 1000
	capacity := tracedWall * svcWorkers
	b.m.set("service.sim_share", ratio(workerSim, capacity), 0)
	b.m.set("worker.idle_share", 1-ratio(workerSim+workerHTTP, capacity), 0)
	if !warm {
		// Wall per cell over what the same cells cost sim.RunChecked on as
		// many CPUs: everything above 1 is the service's own.
		b.m.set("service.overhead_ratio", ratio(1000/rate, directMs/svcWorkers), 0)
	}
	b.m.set("bench.client_busy_share", s.clientBusyShare(), 0)
	cells := float64(len(s.admitted))
	b.m.set("service.cache_bytes_per_cell", ratio(float64(data.cache), cells), 0)
	b.m.set("runner.journal_bytes_per_cell", ratio(float64(data.journal), cells), 0)
	b.m.set("resultstore.store_bytes_per_cell", ratio(float64(data.store), cells), 0)
	b.m.set("service.jobfile_bytes_per_job", ratio(float64(data.jobfile), float64(data.jobs)), 0)
	// Cold: cells of the traced rounds. Warm: everything after the fill, so a
	// timed round or a resubmission that simulated would show.
	b.m.set("service.cells_simulated", after["dnc_cells_admitted_total"]-base["dnc_cells_admitted_total"], 0)
	b.m.set("service.cells_cached", after["dnc_cells_deduped_total"]-base["dnc_cells_deduped_total"], 0)
	b.m.set("httpx.retries", float64(s.retries.Load()), 0)

	// The layer calls and simulated counts use the first job's cells, re-run
	// directly (verifyDirect just showed they digest the same).
	first, err := s.firstCells()
	if err != nil {
		return err
	}
	counts := b.reportCounts(first)
	directNs := directMs * 1e6 * float64(len(first))
	b.m.set("sim.host_ns_per_core_cycle", ratio(directNs, float64(len(first))*cellCores*float64(2*sz.sweepWindow)), len(first))
	b.m.set("sim.host_ns_per_retired_inst", ratio(directNs, float64(counts.m.Retired)), len(first))
	return b.timedCalls(context.Background(), first)
}

// clientBusyShare is the generator's own lateness: the share of the
// clients' time in jobs and queries not spent waiting on the server.
func (s *svc) clientBusyShare() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return 1 - ratio(float64(s.blocked), float64(s.inJobs))
}

// firstCells re-simulates the cells of job 0 for the layer calls.
func (s *svc) firstCells() ([]storedCell, error) {
	spec := s.jobSpec(0)
	var out []storedCell
	for _, w := range spec.Workloads {
		for _, d := range spec.Designs {
			for _, seed := range spec.Seeds {
				c := cell(w, d, spec.Cores, spec.WarmCycles, seed)
				res, err := sim.RunChecked(context.Background(), c.RunConfig())
				if err != nil {
					return nil, err
				}
				out = append(out, storedCell{c, runner.NewResultJSON(res)})
			}
		}
	}
	return out, nil
}
