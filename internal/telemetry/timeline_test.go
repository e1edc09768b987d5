package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// fakeClock advances a deterministic amount per call.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func newFakeClock(step time.Duration) *fakeClock {
	return &fakeClock{t: time.Unix(1700000000, 0), step: step}
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func TestTraceIdentityDeterministic(t *testing.T) {
	if TraceID("job-1") != TraceID("job-1") {
		t.Fatal("trace ID not deterministic")
	}
	if TraceID("job-1") == TraceID("job-2") {
		t.Fatal("trace IDs collide across jobs")
	}
	if len(TraceID("x")) != 16 {
		t.Fatalf("trace ID length %d, want 16", len(TraceID("x")))
	}
	digest := strings.Repeat("ab", 32)
	if SpanID(digest) != digest[:16] {
		t.Fatalf("span ID %q not the digest prefix", SpanID(digest))
	}
	if len(SpanID("short")) != 16 {
		t.Fatalf("short-digest span ID length %d, want 16", len(SpanID("short")))
	}
}

func TestRecorderLifecycleConservation(t *testing.T) {
	clk := newFakeClock(time.Millisecond)
	r := NewRecorder(clk.now)
	var doneCells []CellSnapshot
	r.OnCellDone(func(c CellSnapshot) { doneCells = append(doneCells, c) })

	tid := r.JobSubmitted("job-1", 3)
	if tid != TraceID("job-1") {
		t.Fatalf("trace ID %q != derived %q", tid, TraceID("job-1"))
	}
	r.JobStarted("job-1")
	r.CellCached("job-1", "d-cached", "k-cached")
	r.CellDead("job-1", "d-dead", "k-dead")

	r.CellEnqueued("job-1", "d-run", "k-run")
	r.ExecStart("d-run", "w000001")
	r.ExecEnd("d-run", "w000001", "revoked") // lease expired, reassigned
	r.ExecStart("d-run", "w000002")
	r.Upload("d-run")
	r.Verified("d-run")
	r.ExecEnd("d-run", "w000002", "admitted")
	r.CellDone("job-1", "d-run", "admitted")
	r.JobDone("job-1")

	snap, ok := r.Job("job-1")
	if !ok {
		t.Fatal("job not found")
	}
	if snap.Total != 3 || len(snap.Cells) != 3 {
		t.Fatalf("total=%d cells=%d, want 3/3", snap.Total, len(snap.Cells))
	}
	if snap.Done < snap.Submitted {
		t.Fatal("job done before submitted")
	}
	byDigest := map[string]CellSnapshot{}
	for _, c := range snap.Cells {
		byDigest[c.Digest] = c
	}
	run := byDigest["d-run"]
	if run.Outcome != "admitted" {
		t.Fatalf("run outcome %q", run.Outcome)
	}
	// Conservation: phases tile [enqueue, done] exactly.
	if run.PhaseSum() != run.E2E() {
		t.Fatalf("phase sum %dus != e2e %dus", run.PhaseSum(), run.E2E())
	}
	wantPhases := []string{"queue-wait", "execute", "verify", "admit"}
	if len(run.Phases) != len(wantPhases) {
		t.Fatalf("phases %+v, want %v", run.Phases, wantPhases)
	}
	for i, p := range run.Phases {
		if p.Name != wantPhases[i] {
			t.Fatalf("phase %d = %q, want %q", i, p.Name, wantPhases[i])
		}
		if p.End < p.Start {
			t.Fatalf("phase %q negative", p.Name)
		}
		if i > 0 && p.Start != run.Phases[i-1].End {
			t.Fatalf("phase %q not contiguous", p.Name)
		}
	}
	// Reassignment shows both attempts.
	if len(run.Attempts) != 2 {
		t.Fatalf("attempts %+v, want 2", run.Attempts)
	}
	if run.Attempts[0].Outcome != "revoked" || run.Attempts[1].Outcome != "admitted" {
		t.Fatalf("attempt outcomes %+v", run.Attempts)
	}
	if run.Attempts[0].Worker != "w000001" || run.Attempts[1].Worker != "w000002" {
		t.Fatalf("attempt workers %+v", run.Attempts)
	}

	cached := byDigest["d-cached"]
	if cached.Outcome != "cached" || len(cached.Phases) != 1 || cached.Phases[0].Name != "cached" {
		t.Fatalf("cached cell %+v", cached)
	}
	if cached.PhaseSum() != cached.E2E() {
		t.Fatal("cached conservation broken")
	}
	dead := byDigest["d-dead"]
	if dead.Outcome != "dead" || dead.Phase("dead") != dead.E2E() {
		t.Fatalf("dead cell %+v", dead)
	}
	if len(doneCells) != 3 {
		t.Fatalf("OnCellDone fired %d times, want 3", len(doneCells))
	}
}

func TestRecorderLocalExecution(t *testing.T) {
	clk := newFakeClock(time.Millisecond)
	r := NewRecorder(clk.now)
	r.JobSubmitted("j", 1)
	r.CellEnqueued("j", "d", "k")
	r.ExecStart("d", "in-process") // no ExecEnd: CellDone closes the attempt
	r.Upload("d")
	r.Verified("d")
	r.CellDone("j", "d", "admitted")
	snap, _ := r.Job("j")
	c := snap.Cells[0]
	if c.PhaseSum() != c.E2E() {
		t.Fatalf("local conservation: %d != %d", c.PhaseSum(), c.E2E())
	}
	if len(c.Attempts) != 1 || c.Attempts[0].Worker != "in-process" || c.Attempts[0].Outcome != "admitted" {
		t.Fatalf("local attempt %+v", c.Attempts)
	}
	if c.Attempts[0].End < 0 {
		t.Fatal("open attempt not closed at CellDone")
	}
}

func TestRecorderDedupFanOut(t *testing.T) {
	// Two jobs wait on the same digest; one ExecStart/Upload must land in
	// both timelines, and CellDone on one must not unsubscribe the other.
	clk := newFakeClock(time.Millisecond)
	r := NewRecorder(clk.now)
	r.JobSubmitted("j1", 1)
	r.JobSubmitted("j2", 1)
	r.CellEnqueued("j1", "d", "k")
	r.CellEnqueued("j2", "d", "k")
	r.ExecStart("d", "w000001")
	r.Upload("d")
	r.Verified("d")
	r.CellDone("j1", "d", "admitted")
	// j2 still subscribed: a later verdict event must not panic and its
	// own CellDone still finalizes.
	r.CellDone("j2", "d", "admitted")
	for _, id := range []string{"j1", "j2"} {
		snap, ok := r.Job(id)
		if !ok || len(snap.Cells) != 1 {
			t.Fatalf("job %s missing cells", id)
		}
		c := snap.Cells[0]
		if c.Outcome != "admitted" || len(c.Attempts) != 1 {
			t.Fatalf("job %s cell %+v", id, c)
		}
		if c.PhaseSum() != c.E2E() {
			t.Fatalf("job %s conservation", id)
		}
	}
}

func TestRecorderIdempotentAndUnknown(t *testing.T) {
	clk := newFakeClock(time.Millisecond)
	r := NewRecorder(clk.now)
	r.JobSubmitted("j", 1)
	r.CellEnqueued("j", "d", "k")
	r.CellEnqueued("j", "d", "k") // double enqueue must not double-subscribe
	r.ExecStart("d", "w1")
	r.CellDone("j", "d", "admitted")
	r.CellDone("j", "d", "failed") // second terminal event ignored
	snap, _ := r.Job("j")
	if snap.Cells[0].Outcome != "admitted" {
		t.Fatalf("outcome overwritten: %q", snap.Cells[0].Outcome)
	}
	if len(snap.Cells[0].Attempts) != 1 {
		t.Fatalf("double subscription duplicated attempts: %+v", snap.Cells[0].Attempts)
	}
	r.CellDone("unknown-job", "d", "admitted") // no-op, no panic
	if _, ok := r.Job("nope"); ok {
		t.Fatal("unknown job reported present")
	}
	// Events for an untracked job open it implicitly (post-recovery path).
	r.CellCached("recovered", "d2", "k2")
	if snap, ok := r.Job("recovered"); !ok || len(snap.Cells) != 1 {
		t.Fatal("implicit job not opened")
	}
}

func TestWriteJobPerfettoValidJSON(t *testing.T) {
	clk := newFakeClock(time.Millisecond)
	r := NewRecorder(clk.now)
	r.JobSubmitted("job-9", 1)
	r.CellEnqueued("job-9", strings.Repeat("ab", 32), "k")
	d := strings.Repeat("ab", 32)
	r.ExecStart(d, "w000001")
	r.ExecEnd(d, "w000001", "revoked")
	r.ExecStart(d, "w000002")
	r.Upload(d)
	r.Verified(d)
	r.ExecEnd(d, "w000002", "admitted")
	r.CellDone("job-9", d, "admitted")
	r.JobDone("job-9")

	var b strings.Builder
	ok, err := r.WriteJobPerfetto(&b, "job-9")
	if err != nil || !ok {
		t.Fatalf("export: ok=%v err=%v", ok, err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, b.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	var attempts, phases int
	for _, ev := range doc.TraceEvents {
		if strings.HasPrefix(ev.Name, "attempt ") {
			attempts++
		}
		switch ev.Name {
		case "queue-wait", "execute", "verify", "admit":
			phases++
		}
	}
	if attempts != 2 {
		t.Fatalf("trace shows %d attempts, want 2", attempts)
	}
	if phases != 4 {
		t.Fatalf("trace shows %d phase spans, want 4", phases)
	}
	if ok, err := r.WriteJobPerfetto(&b, "missing"); ok || err != nil {
		t.Fatalf("missing job: ok=%v err=%v", ok, err)
	}
}

func TestRecorderWallClockDefault(t *testing.T) {
	r := NewRecorder(nil)
	r.JobSubmitted("j", 0)
	if snap, ok := r.Job("j"); !ok || snap.Submitted < 0 {
		t.Fatal("wall-clock recorder broken")
	}
}
