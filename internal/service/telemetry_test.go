package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"dnc/internal/service/worker"
	"dnc/internal/telemetry"
)

// ---- telemetry plane: /metrics, /v1/jobs/{id}/trace, stat table ----

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

	// /metrics and /v1/healthz must agree on every mirrored counter — they
	// read the same sources.
	var hz map[string]any
	if code := e.getJSON("/v1/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	for metric, stat := range map[string]string{
		"dnc_cache_hits_total":       "cache_hits",
		"dnc_cache_evictions_total":  "cache_evictions",
		"dnc_cells_reassigned_total": "reassigned",
		"dnc_workers_expired_total":  "workers_expired",
		"dnc_remote_admitted_total":  "remote_admitted",
	} {
		want, ok := hz[stat].(float64)
		if !ok {
			t.Fatalf("healthz missing stat %q", stat)
		}
		if m[metric] != want {
			t.Fatalf("%s = %v but healthz %s = %v", metric, m[metric], stat, want)
		}
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

// TestHealthzServesDeclaredStatTable pins satellite guarantee #1: the wire
// body of /v1/healthz is rendered from the declared stat table — exactly
// those keys (plus status), nothing ad hoc.
func TestHealthzServesDeclaredStatTable(t *testing.T) {
	e := newTestEnv(t, func(c *Config) { c.RunCell = fakeRunCell })
	var hz map[string]any
	if code := e.getJSON("/v1/healthz", &hz); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	want := make(map[string]bool)
	for _, n := range statNames() {
		want[n] = true
	}
	want["status"] = true
	for k := range hz {
		if !want[k] {
			t.Errorf("healthz serves undeclared key %q", k)
		}
	}
	for k := range want {
		if _, ok := hz[k]; !ok {
			t.Errorf("healthz missing declared key %q", k)
		}
	}
}

// TestDocsOperationsNamesServed is the golden test tying the runbook to the
// code: every stat or metric name documented in docs/OPERATIONS.md (a
// backticked lowercase_underscore token) must actually be served — by the
// stat table, the server metric registry, or the worker metric registry.
func TestDocsOperationsNamesServed(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatalf("reading OPERATIONS.md: %v", err)
	}
	served := make(map[string]bool)
	for _, n := range statNames() {
		served[n] = true
	}
	srv, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.cache.close()
	for _, n := range srv.tel.reg.Names() {
		served[n] = true
	}
	for _, n := range worker.NewTelemetry().Reg.Names() {
		served[n] = true
	}

	re := regexp.MustCompile("`([a-z][a-z0-9]*(?:_[a-z0-9]+)+)`")
	found := 0
	for _, match := range re.FindAllStringSubmatch(string(doc), -1) {
		name := match[1]
		found++
		if !served[name] {
			t.Errorf("OPERATIONS.md documents %q but nothing serves it", name)
		}
	}
	if found < len(statNames()) {
		t.Errorf("OPERATIONS.md documents only %d names; the stat table alone has %d — runbook incomplete", found, len(statNames()))
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
