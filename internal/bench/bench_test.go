package bench

import (
	"context"
	"dnc/internal/prefetch"
	"dnc/internal/sim/runner"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// tiny returns a minimal harness for functional tests (not calibration).
func tiny() *Harness {
	return New(Config{
		Cores:         2,
		WarmCycles:    20_000,
		MeasureCycles: 20_000,
		Workloads:     []string{"Web-Frontend"},
		Seed:          1,
	})
}

func TestRunCaching(t *testing.T) {
	h := tiny()
	a := h.Baseline("Web-Frontend")
	b := h.Baseline("Web-Frontend")
	if a.M != b.M {
		t.Fatal("cache returned different results")
	}
	if len(h.cache) != 1 {
		t.Fatalf("cache has %d entries, want 1", len(h.cache))
	}
}

func TestExperimentsProduceTables(t *testing.T) {
	h := tiny()
	// A representative cross-section exercising sim runs, trace metrics,
	// DV-LLC runs, and static analysis.
	for _, id := range []string{"fig02", "fig06", "fig08", "table2"} {
		e, ok := h.ByID(id)
		if !ok {
			t.Fatalf("%s missing", id)
		}
		if e.Table == nil || len(e.Table.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
		if len(e.Headline) == 0 {
			t.Errorf("%s produced no headline metrics", id)
		}
		if !strings.Contains(e.Table.String(), e.Table.Header[0]) {
			t.Errorf("%s table render broken", id)
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	h := tiny()
	if _, ok := h.ByID("fig99"); ok {
		t.Fatal("unknown experiment resolved")
	}
}

// TestIDsCoverAll: every listed ID resolves to the experiment carrying it,
// and All runs the same experiments in the same (paper) order.
func TestIDsCoverAll(t *testing.T) {
	h := tiny()
	ids, all := IDs(), h.All()
	if len(all) != len(ids) {
		t.Fatalf("All() ran %d experiments, IDs() lists %d", len(all), len(ids))
	}
	for i, id := range ids {
		if all[i].ID != id {
			t.Errorf("All()[%d] is %q, IDs()[%d] is %q", i, all[i].ID, i, id)
		}
		if e, ok := h.ByID(id); !ok || e.ID != id {
			t.Errorf("ByID(%q) = %q, %v", id, e.ID, ok)
		}
	}
}

// TestRunCachingLLCOverride: runs with an LLC override hit the cache like
// any other — the key renders the config by value, not its address — so a
// second SecJ on one harness simulates nothing.
func TestRunCachingLLCOverride(t *testing.T) {
	h := tiny()
	h.cfg.Progress = runner.NewProgress()
	first := h.SecJ()
	done := h.cfg.Progress.Snapshot().Done
	if done == 0 {
		t.Fatal("SecJ simulated nothing")
	}
	again := h.SecJ()
	if got := h.cfg.Progress.Snapshot().Done; got != done {
		t.Fatalf("second SecJ ran %d more cells, want 0", got-done)
	}
	if !reflect.DeepEqual(first.Headline, again.Headline) {
		t.Fatalf("cached SecJ headline %v, first %v", again.Headline, first.Headline)
	}
}

func TestTraceMetricsBands(t *testing.T) {
	// Characterization metrics must land in plausible bands for at least
	// one workload (full-suite calibration is asserted by the benchmarks).
	p := NextBlockPredictability("Web-Frontend")
	if p < 0.7 || p > 1.0 {
		t.Errorf("next-block predictability = %.3f, outside (0.7, 1.0]", p)
	}
	d := DiscontinuityPredictability("Web-Frontend")
	if d < 0.5 || d > 1.0 {
		t.Errorf("discontinuity predictability = %.3f, outside (0.5, 1.0]", d)
	}
	u := BranchesPerBlock("Web-Frontend")
	for i := 0; i < 3; i++ {
		if u[i] < u[i+1] {
			t.Errorf("uncovered branches must not increase with capacity: %v", u)
		}
	}
	if u[3] > 0.1 {
		t.Errorf("four branches per BF leave %.3f uncovered, want near zero", u[3])
	}
}

func TestScaleEntries(t *testing.T) {
	if scaleEntries(2048, 1, 2) != 1024 {
		t.Error("half scale wrong")
	}
	if scaleEntries(2048, 2, 1) != 4096 {
		t.Error("double scale wrong")
	}
	if scaleEntries(128, 1, 16) != 64 {
		t.Error("floor not applied")
	}
}

func TestSamplesPooling(t *testing.T) {
	one := New(Config{
		Cores: 1, WarmCycles: 10_000, MeasureCycles: 10_000,
		Workloads: []string{"Web-Frontend"}, Seed: 1,
	})
	three := New(Config{
		Cores: 1, WarmCycles: 10_000, MeasureCycles: 10_000,
		Workloads: []string{"Web-Frontend"}, Seed: 1, Samples: 3,
	})
	a := one.Baseline("Web-Frontend")
	b := three.Baseline("Web-Frontend")
	if b.M.Cycles != 3*a.M.Cycles {
		t.Fatalf("pooled cycles %d, want 3x %d", b.M.Cycles, a.M.Cycles)
	}
	if len(b.PerCore) != 3*len(a.PerCore) {
		t.Fatalf("pooled per-core results %d, want 3x %d", len(b.PerCore), len(a.PerCore))
	}
}

func TestHarnessRecordsFailures(t *testing.T) {
	h := tiny()
	r := h.run("Web-Frontend", "boom", func() prefetch.Design { panic("injected") }, runOpts{})
	if r.M.Cycles != 0 {
		t.Error("failed configuration returned a non-zero result")
	}
	if h.Err() == nil {
		t.Fatal("failure not recorded on the harness")
	}
	if len(h.cache) != 0 {
		t.Fatal("failed configuration was cached")
	}
	// A healthy run afterwards still works and Err persists.
	if h.Baseline("Web-Frontend").M.Cycles == 0 {
		t.Fatal("healthy run after failure returned zero result")
	}
	if h.Err() == nil {
		t.Fatal("Err cleared by a later successful run")
	}
}

func TestPrewarmJournalResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "bench.jsonl")
	cfg := Config{
		Cores: 2, WarmCycles: 10_000, MeasureCycles: 10_000,
		Workloads: []string{"Web-Frontend"}, Seed: 1,
	}
	h1 := New(cfg)
	if err := h1.Prewarm(context.Background(), journal); err != nil {
		t.Fatal(err)
	}
	if len(h1.cache) != 3 {
		t.Fatalf("prewarm cached %d configurations, want 3", len(h1.cache))
	}
	want := h1.Baseline("Web-Frontend")

	// A fresh harness resumes every cell from the journal: the restored
	// metrics match and no simulation re-runs (restored results carry no
	// design probes, so probes on the full design's result would mean a
	// re-run).
	h2 := New(cfg)
	if err := h2.Prewarm(context.Background(), journal); err != nil {
		t.Fatal(err)
	}
	got := h2.Baseline("Web-Frontend")
	if got.M != want.M {
		t.Fatal("journal-restored metrics differ from the original run")
	}
	if h1.Full("Web-Frontend").Probes == nil {
		t.Fatal("a live run of the full design carries no probes")
	}
	if h2.Full("Web-Frontend").Probes != nil {
		t.Fatal("prewarm re-ran a journaled cell instead of resuming it")
	}
}

// TestDesignProbesOnResumedResults pins Fig01 and Fig12 — the two experiments
// that read a design's own counters rather than core metrics — against
// results that carry none: journal-resumed, cache-restored and failed ones
// used to print a 0% footprint-miss ratio and zero overprediction.
func TestDesignProbesOnResumedResults(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "bench.jsonl")
	cfg := Config{
		Cores: 2, WarmCycles: 20_000, MeasureCycles: 20_000,
		Workloads: []string{"Web-Frontend"}, Seed: 1,
	}
	live := New(cfg)
	want01, want12 := live.Fig01().Headline, live.Fig12().Headline
	if want01["fpmiss_avg"] == 0 || want12["overpred_tagless"] == 0 {
		t.Fatalf("live probes read zero (%v, %v): the comparison below would be vacuous", want01, want12)
	}

	// A Prewarm-resumed harness holds probe-less results, but not of the
	// configurations the two figures probe: those run live and read as above.
	if err := New(cfg).Prewarm(context.Background(), journal); err != nil {
		t.Fatal(err)
	}
	h := New(cfg)
	if err := h.Prewarm(context.Background(), journal); err != nil {
		t.Fatal(err)
	}
	if h.Full("Web-Frontend").Probes != nil {
		t.Fatal("prewarm re-ran a journaled cell instead of resuming it")
	}
	if got := h.Fig01().Headline; !reflect.DeepEqual(got, want01) {
		t.Errorf("Fig01 on a resumed harness = %v, want %v", got, want01)
	}
	if got := h.Fig12().Headline; !reflect.DeepEqual(got, want12) {
		t.Errorf("Fig12 on a resumed harness = %v, want %v", got, want12)
	}

	unavailableRows := func(what string, h *Harness) {
		t.Helper()
		for _, e := range []Experiment{h.Fig01(), h.Fig12()} {
			if len(e.Headline) != 0 {
				t.Errorf("%s: %s has headline numbers %v", what, e.ID, e.Headline)
			}
			for _, row := range e.Table.Rows {
				if row[1] != unavailable {
					t.Errorf("%s: %s row %v, want %q", what, e.ID, row, unavailable)
				}
			}
		}
	}

	// Those configurations restored the way a journal or result cache
	// covering them would: every metric, no probes.
	for ck, r := range h.cache {
		r.Probes = nil
		h.cache[ck] = r
	}
	unavailableRows("restored results", h)

	// A configuration that cannot run.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dead := New(cfg)
	dead.SetContext(ctx)
	unavailableRows("failed runs", dead)
	if dead.Err() == nil {
		t.Fatal("cancelled harness recorded no failure")
	}
}
