package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"dnc/internal/service/worker"
	"dnc/internal/sim/runner"
	"dnc/internal/telemetry"
)

// ---- telemetry plane: /metrics, /v1/jobs/{id}/trace, liveness ----

// fetchMetrics scrapes /metrics and parses the exposition into sample name
// (labels included, verbatim) → value.
func fetchMetrics(t *testing.T, e *testEnv) (map[string]float64, []byte) {
	t.Helper()
	resp, err := http.Get(e.base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out, body
}

// statRow ties one operational number to its /metrics series: the key
// /v1/healthz served before it became liveness-only, the series that
// serves it now, and its value in a Server.Stats snapshot.
type statRow struct {
	key, series string
	val         float64
}

// statsSeries lists every Server.Stats field but Draining (which healthz
// still answers) and Retried (never a healthz key; TestWorkerPlaneTransientRetries
// reads its series) with its series. docs/OPERATIONS.md carries the same
// key → series table for operators moving their checks.
func statsSeries(st Stats) []statRow {
	return []statRow{
		{"jobs", "dnc_jobs_known", float64(st.Jobs)},
		{"queued", "dnc_queue_depth", float64(st.Queued)},
		{"running", "dnc_jobs_running", float64(st.Running)},
		{"simulated", "dnc_cells_admitted_total", float64(st.Simulated)},
		{"cache_hits", "dnc_cache_hits_total", float64(st.CacheHits)},
		{"cache_entries", "dnc_cache_entries", float64(st.CacheEntries)},
		{"cache_bytes", "dnc_cache_bytes", float64(st.CacheBytes)},
		{"cache_evictions", "dnc_cache_evictions_total", float64(st.CacheEvictions)},
		{"store_cells", "dnc_store_cells", float64(st.StoreCells)},
		{"store_bytes", "dnc_store_bytes", float64(st.StoreBytes)},
		{"store_index_bytes", "dnc_store_index_bytes", float64(st.StoreIndexBytes)},
		{"store_write_errors", "dnc_store_write_errors_total", float64(st.StoreWriteErrors)},
		{"dead_letters", "dnc_dead_letters", float64(st.DeadLetters)},
		{"workers_registered", "dnc_workers_registered_total", float64(st.WorkersRegistered)},
		{"workers_live", "dnc_workers_live", float64(st.WorkersLive)},
		{"workers_expired", "dnc_workers_expired_total", float64(st.WorkersExpired)},
		{"lease_depth", "dnc_lease_depth", float64(st.LeaseDepth)},
		{"remote_pending", "dnc_remote_pending", float64(st.RemotePending)},
		{"reassigned", "dnc_cells_reassigned_total", float64(st.Reassigned)},
		{"remote_admitted", "dnc_remote_admitted_total", float64(st.RemoteAdmitted)},
		{"remote_duplicates", "dnc_remote_duplicates_total", float64(st.RemoteDuplicates)},
		{"remote_rejected", "dnc_remote_rejected_total", float64(st.RemoteRejected)},
	}
}

// checkMetricsMatchStats scrapes /metrics between two Server.Stats reads
// until a scrape is bracketed by equal snapshots (nothing moved while it
// ran), then requires every statsSeries row to equal its series. It
// returns that scrape.
func checkMetricsMatchStats(t *testing.T, e *testEnv) (map[string]float64, []byte) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		before := e.srv.Stats()
		m, body := fetchMetrics(t, e)
		if e.srv.Stats() != before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			continue
		}
		for _, r := range statsSeries(before) {
			got, ok := m[r.series]
			if !ok {
				t.Errorf("/metrics does not serve %s (Stats %s)", r.series, r.key)
			} else if got != r.val {
				t.Errorf("%s = %v but Server.Stats %s = %v", r.series, got, r.key, r.val)
			}
		}
		return m, body
	}
}

// checkTraceConservation asserts the telemetry acceptance property on one
// finished job: every cell's timeline is terminal with a complete span
// chain — contiguous phases tiling [enqueued, done], every attempt closed —
// and phase durations sum to the end-to-end latency within 1ms (they are
// exact by construction; the tolerance is the documented bound).
func checkTraceConservation(t *testing.T, e *testEnv, jobID string, totalCells int) telemetry.JobSnapshot {
	t.Helper()
	snap, ok := e.srv.rec.Job(jobID)
	if !ok {
		t.Fatalf("recorder has no timeline for job %s", jobID)
	}
	if len(snap.Cells) != totalCells {
		t.Fatalf("timeline has %d cells, want %d", len(snap.Cells), totalCells)
	}
	for _, c := range snap.Cells {
		if c.Outcome == "" || c.Done < 0 {
			t.Fatalf("cell %s not finalized (outcome %q done %d)", c.SpanID, c.Outcome, c.Done)
		}
		if len(c.Phases) == 0 {
			t.Fatalf("cell %s has no phases", c.SpanID)
		}
		if c.Phases[0].Start != c.Enqueued {
			t.Fatalf("cell %s: first phase starts at %d, enqueued at %d", c.SpanID, c.Phases[0].Start, c.Enqueued)
		}
		for i := 1; i < len(c.Phases); i++ {
			if c.Phases[i].Start != c.Phases[i-1].End {
				t.Fatalf("cell %s: phase %q starts at %d but %q ended at %d (gap or overlap)",
					c.SpanID, c.Phases[i].Name, c.Phases[i].Start, c.Phases[i-1].Name, c.Phases[i-1].End)
			}
		}
		if last := c.Phases[len(c.Phases)-1]; last.End != c.Done {
			t.Fatalf("cell %s: last phase ends at %d, cell done at %d", c.SpanID, last.End, c.Done)
		}
		if diff := c.PhaseSum() - c.E2E(); diff > 1000 || diff < -1000 {
			t.Fatalf("cell %s: phase sum %dµs vs e2e %dµs — conservation broken beyond 1ms", c.SpanID, c.PhaseSum(), c.E2E())
		}
		for _, a := range c.Attempts {
			if a.End < 0 || a.Outcome == "open" {
				t.Fatalf("cell %s: attempt %d on %q left open (%+v)", c.SpanID, a.N, a.Worker, a)
			}
		}
	}
	return snap
}

// fetchPerfetto pulls /v1/jobs/{id}/trace and validates the trace_event
// envelope Perfetto requires.
func fetchPerfetto(t *testing.T, e *testEnv, jobID string) []map[string]any {
	t.Helper()
	resp, err := http.Get(e.base + "/v1/jobs/" + jobID + "/trace")
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace = %d, want 200", resp.StatusCode)
	}
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph == "" {
			t.Fatalf("event without phase: %v", ev)
		}
		if _, ok := ev["name"].(string); !ok {
			t.Fatalf("event without name: %v", ev)
		}
	}
	return doc.TraceEvents
}

func TestMetricsEndToEndWithLint(t *testing.T) {
	e := newTestEnv(t, func(c *Config) { c.RunCell = fakeRunCell })
	spec := smallSpec()
	spec.Seeds = []int64{1, 2, 3}
	st := e.submit(spec)
	if fin := e.waitJob(st.ID); fin.State != JobDone {
		t.Fatalf("job state %s, want done", fin.State)
	}
	// Same spec again: every cell is a cache hit, counted as deduped.
	st2 := e.submit(spec)
	e.waitJob(st2.ID)

	// A job turns done, persists its completion record, and only then ticks
	// the completion counter: wait for the second job's tick.
	m, body := fetchMetrics(t, e)
	for deadline := time.Now().Add(5 * time.Second); m["dnc_jobs_completed_total"] < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		m, body = fetchMetrics(t, e)
	}
	if errs := telemetry.Lint(body); len(errs) != 0 {
		t.Fatalf("exposition lint: %v", errs)
	}

	// Cell conservation across both jobs: admitted + deduped + dead covers
	// every submitted cell.
	total := float64(2 * 3)
	if got := m["dnc_cells_admitted_total"] + m["dnc_cells_deduped_total"] + m["dnc_cells_dead_lettered_total"]; got != total {
		t.Fatalf("admitted+deduped+dead = %v, want %v (cells lost or double-counted)", got, total)
	}
	if m["dnc_jobs_submitted_total"] != 2 || m["dnc_jobs_completed_total"] != 2 {
		t.Fatalf("job counters: submitted=%v completed=%v, want 2/2",
			m["dnc_jobs_submitted_total"], m["dnc_jobs_completed_total"])
	}

	// /metrics serves every Server.Stats field from the same source. The
	// jobs have finished, so nothing moves but the second job's worker
	// leaving runJob (dnc_jobs_running 1 → 0).
	m, _ = checkMetricsMatchStats(t, e)
	if m["dnc_jobs_known"] != 2 || m["dnc_cache_entries"] != 3 || m["dnc_cells_admitted_total"] != 3 {
		t.Fatalf("jobs/cache/simulated series = %v/%v/%v, want 2/3/3",
			m["dnc_jobs_known"], m["dnc_cache_entries"], m["dnc_cells_admitted_total"])
	}

	// Histograms observed real cells: e2e count matches fresh admissions.
	if got := m[`dnc_e2e_latency_seconds_count`]; got != total {
		t.Fatalf("e2e histogram count = %v, want %v (every finalized cell observed)", got, total)
	}

	// The timeline behind the same job: conserved phases, exportable trace.
	snap := checkTraceConservation(t, e, st.ID, 3)
	for _, c := range snap.Cells {
		if c.Outcome != "admitted" {
			t.Fatalf("cell %s outcome %q, want admitted", c.SpanID, c.Outcome)
		}
	}
	snap2 := checkTraceConservation(t, e, st2.ID, 3)
	for _, c := range snap2.Cells {
		if c.Outcome != "cached" {
			t.Fatalf("second-job cell %s outcome %q, want cached", c.SpanID, c.Outcome)
		}
	}
	fetchPerfetto(t, e, st.ID)
}

func TestTraceEndpointDisabledAndUnknown(t *testing.T) {
	e := newTestEnv(t, func(c *Config) {
		c.RunCell = fakeRunCell
		c.DisableTelemetry = true
	})
	st := e.submit(smallSpec())
	e.waitJob(st.ID)
	if code := e.getJSON("/v1/jobs/"+st.ID+"/trace", nil); code != http.StatusNotFound {
		t.Fatalf("trace with telemetry disabled = %d, want 404", code)
	}
	if code := e.getJSON("/metrics", nil); code != http.StatusNotFound {
		t.Fatalf("/metrics with telemetry disabled = %d, want 404", code)
	}

	e2 := newTestEnv(t, func(c *Config) { c.RunCell = fakeRunCell })
	if code := e2.getJSON("/v1/jobs/nope/trace", nil); code != http.StatusNotFound {
		t.Fatalf("trace for unknown job = %d, want 404", code)
	}
}

// TestHealthzServesDeclaredStatTable: the table /v1/healthz declares is now
// status alone. It is liveness and drain only — exactly {"status":"ok"}
// with 200 while serving, {"status":"draining"} with 503 once a drain
// begins. Every number is on /metrics.
func TestHealthzServesDeclaredStatTable(t *testing.T) {
	e := newTestEnv(t, func(c *Config) { c.RunCell = fakeRunCell })
	e.waitJob(e.submit(smallSpec()).ID)
	var hz map[string]any
	if code := e.getJSON("/v1/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
	if len(hz) != 1 || hz["status"] != "ok" {
		t.Fatalf("healthz body = %v, want only status ok", hz)
	}

	// A drain closes the listener too, so ask the handler directly.
	e.drain()
	rec := httptest.NewRecorder()
	e.srv.handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	hz = nil
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatalf("draining healthz body %q: %v", rec.Body.String(), err)
	}
	if rec.Code != http.StatusServiceUnavailable || len(hz) != 1 || hz["status"] != "draining" {
		t.Fatalf("draining healthz = %d %v, want 503 with only status draining", rec.Code, hz)
	}
}

// TestDocsOperationsNamesServed is the golden test tying the runbook to the
// code, both ways: every series the server, worker and dncbench -http
// (runner.Progress) registries serve is documented in docs/OPERATIONS.md,
// every documented dnc_* name (a backticked token) is served, and the
// runbook's migration table maps each former healthz key to the series
// statsSeries pairs it with.
func TestDocsOperationsNamesServed(t *testing.T) {
	b, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatalf("reading OPERATIONS.md: %v", err)
	}
	doc := string(b)
	srv, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.cache.close()
	bench := telemetry.NewRegistry()
	runner.NewProgress().Register(bench)
	served := make(map[string]bool)
	for _, n := range slices.Concat(srv.tel.reg.Names(), worker.NewTelemetry().Reg.Names(), bench.Names()) {
		served[n] = true
		if !strings.Contains(doc, "`"+n+"`") {
			t.Errorf("%s is served but OPERATIONS.md does not document it", n)
		}
	}
	re := regexp.MustCompile("`(dnc_[a-z0-9_]+)`")
	for _, match := range re.FindAllStringSubmatch(doc, -1) {
		if !served[match[1]] {
			t.Errorf("OPERATIONS.md documents %q but nothing serves it", match[1])
		}
	}
	for _, r := range statsSeries(Stats{}) {
		if row := "| `" + r.key + "` | `" + r.series + "` |"; !strings.Contains(doc, row) {
			t.Errorf("OPERATIONS.md migration table lacks the row %q", row)
		}
	}
}

// TestTelemetryOverheadGate is the acceptance benchmark: a full sweep with
// telemetry enabled must land within 3% of the disabled baseline. Wall-clock
// sensitive, so it only runs when explicitly requested (the CI overhead-gate
// step sets DNC_TELEMETRY_OVERHEAD=1); min-of-rounds absorbs scheduler noise.
func TestTelemetryOverheadGate(t *testing.T) {
	if os.Getenv("DNC_TELEMETRY_OVERHEAD") != "1" {
		t.Skip("set DNC_TELEMETRY_OVERHEAD=1 to run the telemetry overhead gate")
	}
	spec := smallSpec()
	spec.Designs = []string{"baseline", "NL", "N2L"}
	spec.Seeds = []int64{1, 2}
	spec.WarmCycles = 12_000
	spec.MeasureCycles = 12_000

	const rounds = 5
	run := func(label string, disable bool) time.Duration {
		best := time.Duration(math.MaxInt64)
		for round := 0; round < rounds; round++ {
			// Each round is a subtest so its server drains before the next
			// starts; each gets a fresh DataDir, so every round simulates the
			// same six cells cold.
			t.Run(fmt.Sprintf("%s/round%d", label, round), func(t *testing.T) {
				e := newTestEnv(t, func(c *Config) { c.DisableTelemetry = disable })
				start := time.Now()
				st := e.submit(spec)
				if fin := e.waitJob(st.ID); fin.State != JobDone {
					t.Fatalf("job state %s (%v), want done", fin.State, fin.Error)
				}
				if d := time.Since(start); d < best {
					best = d
				}
			})
		}
		return best
	}

	baseline := run("disabled", true)
	enabled := run("enabled", false)
	overhead := float64(enabled-baseline) / float64(baseline)
	t.Logf("telemetry overhead: baseline=%v enabled=%v overhead=%.2f%%", baseline, enabled, overhead*100)
	if overhead > 0.03 {
		t.Fatalf("telemetry overhead %.2f%% exceeds the 3%% budget (baseline %v, enabled %v)",
			overhead*100, baseline, enabled)
	}
}
