package telemetry

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndVec(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dnc_things_total", "Things counted.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	cv := r.CounterVec("dnc_retries_total", "Retries by status.", "status")
	cv.With("503").Inc()
	cv.With("503").Inc()
	cv.With("429").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP dnc_things_total Things counted.",
		"# TYPE dnc_things_total counter",
		"dnc_things_total 5",
		`dnc_retries_total{status="429"} 1`,
		`dnc_retries_total{status="503"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Vec children sort by label value for stable output.
	if strings.Index(out, `status="429"`) > strings.Index(out, `status="503"`) {
		t.Errorf("vec children not sorted:\n%s", out)
	}
}

func TestGaugeAndCounterFunc(t *testing.T) {
	r := NewRegistry()
	depth := 7.0
	r.GaugeFunc("dnc_queue_depth", "Queue depth.", func() float64 { return depth })
	n := uint64(42)
	r.CounterFunc("dnc_mirrored_total", "Mirrored.", func() uint64 { return n })
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, "dnc_queue_depth 7\n") {
		t.Errorf("gauge sample missing:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE dnc_queue_depth gauge") {
		t.Errorf("gauge TYPE missing:\n%s", out)
	}
	if !strings.Contains(out, "dnc_mirrored_total 42\n") {
		t.Errorf("counterfunc sample missing:\n%s", out)
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dnc_wait_seconds", "Wait time.", []uint64{1000, 10000, 100000}, SecondsScale)
	h.ObserveDuration(500 * time.Microsecond) // ≤ 1000µs bucket
	h.ObserveDuration(5 * time.Millisecond)   // ≤ 10000µs bucket
	h.ObserveDuration(5 * time.Millisecond)   // ≤ 10000µs bucket
	h.ObserveDuration(time.Second)            // overflow → +Inf only
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`dnc_wait_seconds_bucket{le="0.001"} 1`,
		`dnc_wait_seconds_bucket{le="0.01"} 3`,
		`dnc_wait_seconds_bucket{le="0.1"} 3`,
		`dnc_wait_seconds_bucket{le="+Inf"} 4`,
		"dnc_wait_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if errs := Lint([]byte(out)); len(errs) > 0 {
		t.Fatalf("self-lint failed: %v", errs)
	}
	if s := h.Snapshot(); s.N != 4 {
		t.Fatalf("snapshot N = %d, want 4", s.N)
	}
}

func TestNegativeDurationClamped(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dnc_neg_seconds", "Neg.", []uint64{10}, SecondsScale)
	h.ObserveDuration(-time.Second)
	if s := h.Snapshot(); s.N != 1 || s.Sum != 0 {
		t.Fatalf("negative duration not clamped: %+v", s)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "x")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter accumulated")
	}
	cv := r.CounterVec("y_total", "y", "l")
	cv.With("a").Inc()
	r.GaugeFunc("g", "g", nil)
	r.CounterFunc("f_total", "f", nil)
	h := r.Histogram("h_seconds", "h", []uint64{1}, 1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	_ = h.Snapshot()
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if r.Names() != nil {
		t.Fatal("nil registry has names")
	}
	var rec *Recorder
	rec.JobSubmitted("j", 1)
	rec.JobStarted("j")
	rec.CellEnqueued("j", "d", "k")
	rec.ExecStart("d", "w")
	rec.Upload("d")
	rec.Verified("d")
	rec.ExecEnd("d", "w", "admitted")
	rec.CellDone("j", "d", "admitted")
	rec.CellCached("j", "d2", "k2")
	rec.CellDead("j", "d3", "k3")
	rec.JobDone("j")
	rec.OnCellDone(nil)
	if _, ok := rec.Job("j"); ok {
		t.Fatal("nil recorder returned a job")
	}
	if ok, _ := rec.WriteJobPerfetto(&strings.Builder{}, "j"); ok {
		t.Fatal("nil recorder wrote a trace")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("dup_total", "a")
	r.Counter("dup_total", "b")
}

func TestEmptyVecExposesZeroSample(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("dnc_empty_total", "Empty vec.", "status")
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `dnc_empty_total{status=""} 0`) {
		t.Fatalf("empty vec has no zero sample:\n%s", b.String())
	}
	if errs := Lint([]byte(b.String())); len(errs) > 0 {
		t.Fatalf("empty-vec exposition lint: %v", errs)
	}
}

func TestConcurrentObservationDuringScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dnc_conc_total", "Concurrent.")
	cv := r.CounterVec("dnc_concv_total", "Concurrent vec.", "s")
	h := r.Histogram("dnc_conc_seconds", "Concurrent hist.", DurationBounds(), SecondsScale)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				cv.With("a").Inc()
				h.Observe(uint64(j))
			}
		}()
	}
	for i := 0; i < 10; i++ {
		r.WritePrometheus(&strings.Builder{})
	}
	wg.Wait()
	if c.Value() != 4000 {
		t.Fatalf("counter = %d, want 4000", c.Value())
	}
	if cv.With("a").Value() != 4000 {
		t.Fatalf("vec = %d, want 4000", cv.With("a").Value())
	}
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("dnc_h_total", "H.")
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); !strings.HasPrefix(got, "text/plain") {
		t.Fatalf("content type %q", got)
	}
	if !strings.Contains(rec.Body.String(), "dnc_h_total 0") {
		t.Fatalf("handler body:\n%s", rec.Body.String())
	}
}
