package worker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnc/internal/httpx"
	"dnc/internal/service/workerproto"
	"dnc/internal/sim/runner"
)

// ---- the worker loop against a scripted control plane ----
//
// These tests pin the session's pipeline from outside: what the worker asks
// of the server, when, and how many leases it lets itself hold. The control
// plane is an httptest server that speaks the wire protocol and parks empty
// lease calls the way dncserved does; each test scripts its answers.

// plane is the scripted control plane.
type plane struct {
	t   *testing.T
	srv *httptest.Server

	mu       sync.Mutex
	news     chan struct{} // closed and replaced when cells are added
	cells    []workerproto.CellSpec
	events   []string            // "lease d", "run d", "ran d", "upload d", "ack d", in order
	uploads  map[string]int      // digest → upload requests received
	acked    map[string]bool     // digest → upload answered 200
	requests []int               // Max of every lease request
	running  int                 // cells inside Options.Run
	granted  int                 // leases handed out
	parked   int                 // lease calls being held
	regs     int                 // registrations
	beats    int                 // heartbeats answered
	capacity int                 // what the worker registered with
	slotsOK  bool                // every lease request asked for no more than the free slots
	revoke   map[string]bool     // digests the next heartbeats report revoked
	expired  map[string]bool     // worker IDs whose heartbeats answer 404
	draining bool                // lease calls answer Draining
	onUpload func(digest string) // runs in the complete handler before it answers
	onLease  func(*workerproto.Lease)
}

func newPlane(t *testing.T) *plane {
	p := &plane{
		t:       t,
		news:    make(chan struct{}),
		uploads: map[string]int{}, acked: map[string]bool{},
		revoke: map[string]bool{}, expired: map[string]bool{},
		slotsOK: true,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/workers/register", p.register)
	mux.HandleFunc("POST /v1/workers/{id}/lease", p.lease)
	mux.HandleFunc("POST /v1/workers/{id}/heartbeat", p.heartbeat)
	mux.HandleFunc("POST /v1/cells/{digest}/complete", p.complete)
	p.srv = httptest.NewServer(mux)
	t.Cleanup(p.srv.Close)
	return p
}

func (p *plane) event(format string, args ...any) {
	p.events = append(p.events, fmt.Sprintf(format, args...))
}

// index is the position of an event in the order the plane saw them, -1 if
// it has not happened.
func (p *plane) index(event string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, e := range p.events {
		if e == event {
			return i
		}
	}
	return -1
}

// add queues n more distinct cells and wakes parked lease calls.
func (p *plane) add(n int) []workerproto.CellSpec {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []workerproto.CellSpec
	for i := 0; i < n; i++ {
		out = append(out, workerproto.CellSpec{
			Workload: "Web-Frontend", Design: "baseline",
			Cores: 2, Warm: 600, Measure: 600, Seed: int64(len(p.uploads) + len(p.cells) + p.granted + 1),
		})
		p.cells = append(p.cells, out[i])
	}
	close(p.news)
	p.news = make(chan struct{})
	return out
}

func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (p *plane) register(w http.ResponseWriter, r *http.Request) {
	var req workerproto.RegisterRequest
	json.NewDecoder(r.Body).Decode(&req)
	p.mu.Lock()
	p.regs++
	p.capacity = req.Capacity
	id := fmt.Sprintf("w%d", p.regs)
	p.mu.Unlock()
	reply(w, workerproto.RegisterResponse{WorkerID: id, LeaseTTLMS: 60, HeartbeatMS: 20, LeaseBatchMax: 16})
}

// lease grants what is queued, or holds the call until there is something,
// the client leaves, or a heartbeat period has passed.
func (p *plane) lease(w http.ResponseWriter, r *http.Request) {
	var req workerproto.LeaseRequest
	json.NewDecoder(r.Body).Decode(&req)
	bound := time.After(20 * time.Millisecond)
	p.mu.Lock()
	p.requests = append(p.requests, req.Max)
	if req.Max < 1 || req.Max+p.running > p.capacity {
		// The worker asked for more cells than it has slots standing free:
		// starting them would block its lease loop.
		p.slotsOK = false
	}
	for {
		if p.expired[r.PathValue("id")] {
			p.mu.Unlock()
			http.Error(w, "unknown worker", http.StatusNotFound)
			return
		}
		if p.draining {
			p.mu.Unlock()
			reply(w, workerproto.LeaseResponse{Draining: true})
			return
		}
		var out []workerproto.Lease
		for len(out) < req.Max && len(p.cells) > 0 {
			c := p.cells[0]
			p.cells = p.cells[1:]
			l := workerproto.Lease{Digest: c.Digest(), Key: c.Key(), Spec: c}
			if p.onLease != nil {
				p.onLease(&l)
			}
			out = append(out, l)
			p.event("lease %s", c.Digest())
			p.granted++
		}
		if len(out) > 0 {
			p.mu.Unlock()
			reply(w, workerproto.LeaseResponse{Leases: out})
			return
		}
		news := p.news
		p.parked++
		p.mu.Unlock()
		select {
		case <-news:
			p.mu.Lock()
			p.parked--
		case <-bound:
			p.mu.Lock()
			p.parked--
			p.mu.Unlock()
			reply(w, workerproto.LeaseResponse{})
			return
		case <-r.Context().Done():
			p.mu.Lock()
			p.parked--
			p.mu.Unlock()
			return
		}
	}
}

func (p *plane) heartbeat(w http.ResponseWriter, r *http.Request) {
	var req workerproto.HeartbeatRequest
	json.NewDecoder(r.Body).Decode(&req)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.expired[r.PathValue("id")] {
		http.Error(w, "unknown worker", http.StatusNotFound)
		return
	}
	p.beats++
	var resp workerproto.HeartbeatResponse
	for _, d := range req.Active {
		if p.revoke[d] {
			resp.Revoked = append(resp.Revoked, d)
		}
	}
	reply(w, resp)
}

func (p *plane) complete(w http.ResponseWriter, r *http.Request) {
	var req workerproto.CompleteRequest
	json.NewDecoder(r.Body).Decode(&req)
	digest := r.PathValue("digest")
	p.mu.Lock()
	p.uploads[digest]++
	p.event("upload %s", digest)
	hook := p.onUpload
	p.mu.Unlock()
	if hook != nil {
		hook(digest)
	}
	if r.Context().Err() != nil {
		return // the worker abandoned the upload while the hook held it
	}
	p.mu.Lock()
	p.acked[digest] = true
	p.event("ack %s", digest)
	p.mu.Unlock()
	reply(w, workerproto.CompleteResponse{Status: workerproto.StatusAdmitted})
}

// run is the execution seam: instant, and visible to the plane.
func (p *plane) run(ctx context.Context, spec workerproto.CellSpec) (*runner.ResultJSON, error) {
	p.mu.Lock()
	p.running++
	p.event("run %s", spec.Digest())
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.running--
		p.event("ran %s", spec.Digest())
		p.mu.Unlock()
	}()
	return &runner.ResultJSON{Workload: spec.Workload, Design: spec.Design}, ctx.Err()
}

// start runs a worker against the plane until the test ends; the returned
// channel carries Run's return value.
func (p *plane) start(o Options) (stop func(), done <-chan error) {
	o.Server = p.srv.URL
	if o.Run == nil {
		o.Run = p.run
	}
	if o.Client == nil {
		o.Client = &httpx.RetryClient{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan error, 1)
	exited := make(chan struct{})
	go func() {
		ch <- Run(ctx, o)
		close(exited)
	}()
	stop = func() {
		cancel()
		select {
		case <-exited:
		case <-time.After(5 * time.Second):
			p.t.Error("worker.Run did not return after its context was cancelled")
		}
	}
	p.t.Cleanup(stop)
	return stop, ch
}

// eventually polls cond under the plane's lock.
func (p *plane) eventually(what string, cond func() bool) {
	p.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		ok := cond()
		p.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			p.mu.Lock()
			defer p.mu.Unlock()
			p.t.Fatalf("timed out waiting for %s (granted=%d acked=%d parked=%d running=%d events=%v)",
				what, p.granted, len(p.acked), p.parked, p.running, p.events)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoTimerOnTheBusyPath: with a poll interval of an hour, any wait on it
// between two cells would hang the test; twenty cells must instead go
// through back to back.
func TestNoTimerOnTheBusyPath(t *testing.T) {
	p := newPlane(t)
	tel := NewTelemetry()
	p.start(Options{Capacity: 1, PollInterval: time.Hour, Telemetry: tel})
	p.eventually("the worker's first lease call to park", func() bool { return p.parked == 1 })
	start := time.Now()
	p.add(20)
	p.eventually("20 acknowledged uploads, counted by the worker", func() bool {
		return len(p.acked) == 20 && tel.CellsCompleted.Value() == 20
	})
	if d := time.Since(start); d > time.Second {
		t.Fatalf("20 instant cells took %v with PollInterval an hour; something on the busy path waits", d)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for d, n := range p.uploads {
		if n != 1 {
			t.Errorf("cell %.12s uploaded %d times", d, n)
		}
	}
	// One slot ran 20 cells: 19 gaps between a run's end and the next start.
	if got := tel.SlotIdle.Snapshot().N; got != 19 {
		t.Errorf("dnc_worker_slot_idle_seconds observed %d gaps, want 19", got)
	}
}

// TestUploadOverlapsNextRun: the slot is free from the moment Run returns, so
// while the server sits on cell n's upload for 50 ms, cell n+1 is leased and
// running.
func TestUploadOverlapsNextRun(t *testing.T) {
	p := newPlane(t)
	p.onUpload = func(string) { time.Sleep(50 * time.Millisecond) }
	cells := p.add(4)
	p.start(Options{Capacity: 1, PollInterval: time.Hour})
	p.eventually("4 acknowledged uploads", func() bool { return len(p.acked) == 4 })
	for n := 0; n+1 < len(cells); n++ {
		run, ack := p.index("run "+cells[n+1].Digest()), p.index("ack "+cells[n].Digest())
		if run < 0 || ack < 0 || run > ack {
			t.Errorf("cell %d's run started at event %d, cell %d's upload was acknowledged at event %d: the slot waited for the upload",
				n+1, run, n, ack)
		}
	}
}

// TestStuckServerBackPressuresTheSlots: a server that stops answering
// uploads stops the worker at 2×Capacity leases — Capacity uploads in
// flight, Capacity finished cells waiting on their slots for an upload
// token — and every lease request along the way asked for no more cells
// than slots stood free, which is what lets the lease loop start them
// without blocking.
func TestStuckServerBackPressuresTheSlots(t *testing.T) {
	const capacity = 2
	p := newPlane(t)
	release := make(chan struct{})
	p.onUpload = func(string) { <-release }
	p.add(12)
	p.start(Options{Capacity: capacity, PollInterval: time.Hour})
	p.eventually("the worker to fill both stages", func() bool {
		return p.granted == 2*capacity && len(p.uploads) == capacity && p.running == 0
	})
	// Nothing more may be leased, now or later: no request is outstanding and
	// none is sent while the uploads are stuck.
	time.Sleep(50 * time.Millisecond)
	p.mu.Lock()
	granted, parked, asked := p.granted, p.parked, len(p.requests)
	p.mu.Unlock()
	if granted != 2*capacity || parked != 0 {
		t.Fatalf("with uploads stuck the worker holds %d leases (%d lease calls outstanding), want %d and 0",
			granted, parked, 2*capacity)
	}
	close(release)
	p.eventually("all 12 cells acknowledged", func() bool { return len(p.acked) == 12 })
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.slotsOK {
		t.Fatalf("a lease request asked for more cells than slots stood free (Max of each request: %v)", p.requests)
	}
	if len(p.requests) == asked {
		t.Fatal("no lease request followed the release")
	}
}

// TestRevocationDuringUpload: a heartbeat that revokes a cell whose upload is
// in flight abandons that upload — one request, never repeated — and frees
// its token for the next cell.
func TestRevocationDuringUpload(t *testing.T) {
	p := newPlane(t)
	cells := p.add(1)
	victim := cells[0].Digest()
	held := make(chan struct{})
	p.onUpload = func(d string) {
		if d != victim {
			return
		}
		p.mu.Lock()
		p.revoke[victim] = true
		p.mu.Unlock()
		<-held
	}
	tel := NewTelemetry()
	p.start(Options{Capacity: 1, PollInterval: time.Hour, Telemetry: tel})
	p.eventually("the victim's upload to arrive", func() bool { return p.uploads[victim] == 1 })
	p.eventually("the worker to abandon it", func() bool { return tel.CellsAbandoned.Value() == 1 })
	next := p.add(1)[0].Digest()
	p.eventually("the next cell through the freed token", func() bool { return p.acked[next] })
	close(held)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.uploads[victim] != 1 || p.acked[victim] {
		t.Fatalf("revoked cell: %d upload requests, acknowledged=%v; want one request, abandoned", p.uploads[victim], p.acked[victim])
	}
	if got := tel.LeasesRevoked.Value(); got != 1 {
		t.Fatalf("dnc_worker_leases_revoked_total = %d, want 1", got)
	}
	if got := tel.UploadRejected.Value(); got != 0 {
		t.Fatalf("an abandoned upload was counted as rejected (%d)", got)
	}
}

// TestExpiryDuringUpload: a 404 while an upload is in flight ends the
// session — the upload is abandoned, not repeated — and the worker registers
// again and carries on.
func TestExpiryDuringUpload(t *testing.T) {
	p := newPlane(t)
	cells := p.add(1)
	victim := cells[0].Digest()
	held := make(chan struct{})
	p.onUpload = func(d string) {
		if d != victim {
			return
		}
		p.mu.Lock()
		p.expired["w1"] = true
		p.mu.Unlock()
		<-held
	}
	p.start(Options{Capacity: 1, PollInterval: time.Hour})
	p.eventually("the worker to register again", func() bool { return p.regs == 2 })
	next := p.add(1)[0].Digest()
	p.eventually("the new session to complete a cell", func() bool { return p.acked[next] })
	close(held)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.uploads[victim] != 1 || p.acked[victim] {
		t.Fatalf("cell of the expired session: %d upload requests, acknowledged=%v; want one request, abandoned",
			p.uploads[victim], p.acked[victim])
	}
}

// TestFreezeAfterExactUploads: the chaos hook sends exactly FreezeAfter
// result uploads, though runs now finish ahead of acknowledgements, then
// wedges: the cells past the budget hold their leases, nothing new is
// leased, heartbeats keep flowing.
func TestFreezeAfterExactUploads(t *testing.T) {
	const capacity, freezeAfter = 2, 3
	p := newPlane(t)
	p.onUpload = func(string) { time.Sleep(10 * time.Millisecond) }
	p.add(10)
	p.start(Options{Capacity: capacity, PollInterval: time.Hour, FreezeAfter: freezeAfter})
	p.eventually("the budgeted uploads and a wedged cell", func() bool {
		return len(p.acked) == freezeAfter && p.granted > freezeAfter && p.running == 0
	})
	p.mu.Lock()
	beats := p.beats
	p.mu.Unlock()
	p.eventually("heartbeats from the frozen worker", func() bool { return p.beats >= beats+3 })
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.uploads) != freezeAfter {
		t.Fatalf("frozen worker sent %d uploads, want exactly %d", len(p.uploads), freezeAfter)
	}
	if p.granted > freezeAfter+capacity || p.parked != 0 {
		t.Fatalf("frozen worker holds %d leases past its %d uploads with %d lease calls outstanding; want at most %d and 0",
			p.granted-freezeAfter, freezeAfter, p.parked, capacity)
	}
}

// TestDrainFinishesHeldCells: a Draining answer ends the session once the
// cells it holds are through, and Run returns nil.
func TestDrainFinishesHeldCells(t *testing.T) {
	p := newPlane(t)
	p.onUpload = func(string) {
		p.mu.Lock()
		p.draining = true
		p.mu.Unlock()
	}
	cells := p.add(1)
	_, done := p.start(Options{Capacity: 1, PollInterval: time.Hour})
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run on drain = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after the server reported draining")
	}
	if !p.acked[cells[0].Digest()] {
		t.Fatal("the held cell was not uploaded before the session ended")
	}
}

// TestFailedRunsAreReported: an execution error is uploaded as a failure
// (a deadline error as a transient one), a lease whose spec does not match
// its address is refused without running, a run that outlasts its lease is
// stopped by the heartbeat revoking it and uploads nothing, and a failed
// lease request costs one PollInterval, not the session.
func TestFailedRunsAreReported(t *testing.T) {
	p := newPlane(t)
	var mu sync.Mutex
	got := map[string]workerproto.CompleteRequest{}
	mux := http.NewServeMux()
	mux.Handle("/", p.srv.Config.Handler)
	leaseFailures := 1
	mux.HandleFunc("POST /v1/workers/{id}/lease", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		fail := leaseFailures > 0
		leaseFailures--
		mu.Unlock()
		if fail {
			http.Error(w, "try later", http.StatusInternalServerError)
			return
		}
		p.lease(w, r)
	})
	mux.HandleFunc("POST /v1/cells/{digest}/complete", func(w http.ResponseWriter, r *http.Request) {
		var req workerproto.CompleteRequest
		json.NewDecoder(r.Body).Decode(&req)
		mu.Lock()
		got[r.PathValue("digest")] = req
		mu.Unlock()
		reply(w, workerproto.CompleteResponse{Status: workerproto.StatusFailureRecorded})
	})
	front := httptest.NewServer(mux)
	defer front.Close()

	cells := p.add(4)
	boom, late, forged, slow := cells[0], cells[1], cells[2], cells[3]
	// The server's progress budget: the slow cell's lease is revoked at the
	// first heartbeat that lists it.
	p.revoke[slow.Digest()] = true
	// The third lease carries a spec that is not the one its digest names.
	p.onLease = func(l *workerproto.Lease) {
		if l.Spec == forged {
			l.Spec.Seed = 999
		}
	}
	tel := NewTelemetry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- Run(ctx, Options{
			Server: front.URL, Capacity: 1, PollInterval: time.Millisecond,
			Client: &httpx.RetryClient{}, Telemetry: tel,
			Run: func(ctx context.Context, spec workerproto.CellSpec) (*runner.ResultJSON, error) {
				switch spec {
				case boom:
					return nil, errors.New("boom")
				case late:
					return nil, fmt.Errorf("host overloaded: %w", context.DeadlineExceeded)
				case slow:
					<-ctx.Done()
					return nil, ctx.Err()
				}
				t.Errorf("a cell that should not run did: %+v", spec)
				return nil, nil
			},
		})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 3 && tel.CellsAbandoned.Value() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of 3 failures were reported, %d revoked cells abandoned", n, tel.CellsAbandoned.Value())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	mu.Lock()
	defer mu.Unlock()
	if r := got[boom.Digest()]; r.Result != nil || r.Error != "boom" || r.Transient {
		t.Errorf("failed run reported as %+v", r)
	}
	if r := got[late.Digest()]; r.Result != nil || r.Error == "" || !r.Transient {
		t.Errorf("run ended on a deadline reported as %+v, want a transient failure", r)
	}
	if r, uploaded := got[slow.Digest()]; uploaded {
		t.Errorf("revoked run uploaded %+v, want nothing", r)
	}
	if got := tel.LeasesRevoked.Value(); got != 1 {
		t.Errorf("dnc_worker_leases_revoked_total = %d, want 1", got)
	}
	if r := got[forged.Digest()]; r.Result != nil || r.Error == "" {
		t.Errorf("mismatched lease reported as %+v, want a refusal", r)
	}
	if got := tel.CellsFailed.Value(); got != 3 {
		t.Errorf("dnc_worker_cells_failed_total = %d, want 3", got)
	}
	if s := tel.Summary(); s == "" {
		t.Error("no exit summary after three failures")
	}
}

// TestDefaultRunIsTheSimulator: with no execution seam the worker runs the
// cell for real, and what it uploads is that cell's result.
func TestDefaultRunIsTheSimulator(t *testing.T) {
	p := newPlane(t)
	var mu sync.Mutex
	var got *runner.ResultJSON
	mux := http.NewServeMux()
	mux.Handle("/", p.srv.Config.Handler)
	mux.HandleFunc("POST /v1/cells/{digest}/complete", func(w http.ResponseWriter, r *http.Request) {
		var req workerproto.CompleteRequest
		json.NewDecoder(r.Body).Decode(&req)
		mu.Lock()
		got = req.Result
		mu.Unlock()
		reply(w, workerproto.CompleteResponse{Status: workerproto.StatusAdmitted})
	})
	front := httptest.NewServer(mux)
	defer front.Close()
	cell := p.add(1)[0]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- Run(ctx, Options{Server: front.URL + "/", PollInterval: time.Hour}) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		r := got
		mu.Unlock()
		if r != nil {
			if r.Workload != cell.Workload || r.M.Cycles == 0 || r.M.Retired == 0 {
				t.Fatalf("uploaded result = %+v, want a real run of %s", r, cell.Workload)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no result uploaded")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after cancel = %v, want context.Canceled", err)
	}
}

// ---- the session over the work API, without HTTP ----

// directAPI is a WorkAPI a test drives by hand: leases come from a channel,
// a worker ID listed in unknown answers ErrUnknownWorker, and a digest in
// revoke comes back revoked from every heartbeat that claims it.
type directAPI struct {
	leases chan workerproto.Lease

	mu        sync.Mutex
	regs      int
	unknown   map[string]bool
	revoke    map[string]bool
	completes map[string]string // digest → uploading worker ID
}

func (a *directAPI) Register(context.Context, workerproto.RegisterRequest) (workerproto.RegisterResponse, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.regs++
	return workerproto.RegisterResponse{WorkerID: fmt.Sprintf("d%d", a.regs), LeaseTTLMS: 30, HeartbeatMS: 5, LeaseBatchMax: 4}, nil
}

func (a *directAPI) registrations() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.regs
}

func (a *directAPI) gone(id string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.unknown[id]
}

func (a *directAPI) Lease(ctx context.Context, id string, _ workerproto.LeaseRequest) (workerproto.LeaseResponse, error) {
	if a.gone(id) {
		return workerproto.LeaseResponse{}, workerproto.ErrUnknownWorker
	}
	select {
	case l := <-a.leases:
		return workerproto.LeaseResponse{Leases: []workerproto.Lease{l}}, nil
	case <-time.After(5 * time.Millisecond):
		return workerproto.LeaseResponse{}, nil
	case <-ctx.Done():
		return workerproto.LeaseResponse{}, ctx.Err()
	}
}

func (a *directAPI) Heartbeat(_ context.Context, id string, req workerproto.HeartbeatRequest) (workerproto.HeartbeatResponse, error) {
	if a.gone(id) {
		return workerproto.HeartbeatResponse{}, workerproto.ErrUnknownWorker
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var resp workerproto.HeartbeatResponse
	for _, d := range req.Active {
		if a.revoke[d] {
			resp.Revoked = append(resp.Revoked, d)
		}
	}
	return resp, nil
}

func (a *directAPI) Complete(_ context.Context, l workerproto.Lease, _ int, req workerproto.CompleteRequest) (workerproto.CompleteResponse, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.completes[l.Digest] = req.WorkerID
	return workerproto.CompleteResponse{Status: workerproto.StatusAdmitted}, nil
}

// TestSessionOverWorkAPI runs RunOn over a WorkAPI with no HTTP behind it: a
// heartbeat revocation abandons the running cell without an upload, and
// ErrUnknownWorker sends the worker back to Register, whose new session
// completes the next cell.
func TestSessionOverWorkAPI(t *testing.T) {
	api := &directAPI{
		leases:  make(chan workerproto.Lease),
		unknown: map[string]bool{}, revoke: map[string]bool{}, completes: map[string]string{},
	}
	lease := func(seed int64) workerproto.Lease {
		c := workerproto.CellSpec{Workload: "Web-Frontend", Design: "baseline", Cores: 2, Warm: 600, Measure: 600, Seed: seed}
		return workerproto.Lease{Digest: c.Digest(), Key: c.Key(), Spec: c}
	}
	victim, next := lease(1), lease(2)
	started, ended := make(chan struct{}), make(chan error, 1)
	run := func(ctx context.Context, spec workerproto.CellSpec) (*runner.ResultJSON, error) {
		if spec.Digest() != victim.Digest {
			return &runner.ResultJSON{Workload: spec.Workload, Design: spec.Design}, nil
		}
		close(started)
		<-ctx.Done()
		ended <- context.Cause(ctx)
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- RunOn(ctx, api, Options{Capacity: 1, PollInterval: time.Hour, Run: run}) }()

	api.leases <- victim
	<-started
	api.mu.Lock()
	api.revoke[victim.Digest] = true
	api.mu.Unlock()
	select {
	case cause := <-ended:
		if !errors.Is(cause, errRevoked) {
			t.Fatalf("revoked cell ended with %v, want errRevoked", cause)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a revoked cell kept running")
	}

	api.mu.Lock()
	api.unknown["d1"] = true
	api.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for api.registrations() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("ErrUnknownWorker did not send the worker back to Register")
		}
		time.Sleep(time.Millisecond)
	}
	api.leases <- next
	for {
		api.mu.Lock()
		by := api.completes[next.Digest]
		_, uploaded := api.completes[victim.Digest]
		api.mu.Unlock()
		if uploaded {
			t.Fatal("the revoked cell was uploaded")
		}
		if by == "d2" {
			break
		}
		if by != "" || time.Now().After(deadline) {
			t.Fatalf("next cell uploaded by %q, want the new session d2", by)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("RunOn returned %v, want context.Canceled", err)
	}
}

// TestRevokedCellLeasedAgain: a revoked cell handed back to the same session
// while its old run is still unwinding stays reachable. The old run's end
// must not drop the new run from the heartbeat's active list, or the next
// revocation could never reach it.
func TestRevokedCellLeasedAgain(t *testing.T) {
	api := &directAPI{
		leases:  make(chan workerproto.Lease),
		unknown: map[string]bool{}, revoke: map[string]bool{}, completes: map[string]string{},
	}
	c := workerproto.CellSpec{Workload: "Web-Frontend", Design: "baseline", Cores: 2, Warm: 600, Measure: 600, Seed: 1}
	l := workerproto.Lease{Digest: c.Digest(), Key: c.Key(), Spec: c}
	setRevoked := func(on bool) {
		api.mu.Lock()
		api.revoke[l.Digest] = on
		api.mu.Unlock()
	}
	started, release, ended := make(chan int, 2), make(chan struct{}), make(chan error, 1)
	var runs atomic.Int64
	run := func(ctx context.Context, _ workerproto.CellSpec) (*runner.ResultJSON, error) {
		n := int(runs.Add(1))
		started <- n
		<-ctx.Done()
		if n == 1 {
			<-release // the first run unwinds slowly
		} else {
			ended <- context.Cause(ctx)
		}
		return nil, ctx.Err()
	}
	tel := NewTelemetry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go RunOn(ctx, api, Options{Capacity: 2, PollInterval: time.Hour, Run: run, Telemetry: tel})

	api.leases <- l
	<-started
	setRevoked(true)
	for tel.LeasesRevoked.Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	setRevoked(false)
	api.leases <- l
	<-started
	close(release)
	for tel.CellsAbandoned.Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	setRevoked(true)
	select {
	case cause := <-ended:
		if !errors.Is(cause, errRevoked) {
			t.Fatalf("second run ended with %v, want errRevoked", cause)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the second run of a re-leased cell could not be revoked")
	}
}
