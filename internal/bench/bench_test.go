package bench

import (
	"bytes"
	"context"
	"dnc/internal/isa"
	"dnc/internal/prefetch"
	"dnc/internal/sim"
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
	a := h.run("Web-Frontend", baseline)
	b := h.run("Web-Frontend", baseline)
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
	first, _ := h.ByID("secj")
	done := h.cfg.Progress.Snapshot().Done
	if done == 0 {
		t.Fatal("SecJ simulated nothing")
	}
	again, _ := h.ByID("secj")
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
	a := one.run("Web-Frontend", baseline)
	b := three.run("Web-Frontend", baseline)
	if b.M.Cycles != 3*a.M.Cycles {
		t.Fatalf("pooled cycles %d, want 3x %d", b.M.Cycles, a.M.Cycles)
	}
	if len(b.PerCore) != 3*len(a.PerCore) {
		t.Fatalf("pooled per-core results %d, want 3x %d", len(b.PerCore), len(a.PerCore))
	}
}

func TestHarnessRecordsFailures(t *testing.T) {
	h := tiny()
	r := h.run("Web-Frontend", spec{design: "boom"}) // no catalog design: building it panics
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
	if h.run("Web-Frontend", baseline).M.Cycles == 0 {
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
	want := h1.run("Web-Frontend", baseline)

	// A fresh harness resumes every cell from the journal: the restored
	// metrics match and no simulation re-runs (restored results carry no
	// design probes, so probes on the full design's result would mean a
	// re-run).
	h2 := New(cfg)
	if err := h2.Prewarm(context.Background(), journal); err != nil {
		t.Fatal(err)
	}
	got := h2.run("Web-Frontend", baseline)
	if got.M != want.M {
		t.Fatal("journal-restored metrics differ from the original run")
	}
	if h1.run("Web-Frontend", full).Probes == nil {
		t.Fatal("a live run of the full design carries no probes")
	}
	if h2.run("Web-Frontend", full).Probes != nil {
		t.Fatal("prewarm re-ran a journaled cell instead of resuming it")
	}
}

// TestProgressEndsOnFinalCount: over a fully resumed journal the throttled
// progress line prints once, for the first cell, and Finish brings it to the
// final count.
func TestProgressEndsOnFinalCount(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "bench.jsonl")
	cfg := Config{
		Cores: 2, WarmCycles: 10_000, MeasureCycles: 10_000,
		Workloads: []string{"Web-Frontend", "OLTP-DB-A"}, Seed: 1,
	}
	if err := New(cfg).Prewarm(context.Background(), journal); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cfg.ProgressOut = &out
	h := New(cfg)
	if err := h.Prewarm(context.Background(), journal); err != nil {
		t.Fatal(err)
	}
	h.Finish()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if last := lines[len(lines)-1]; !strings.HasPrefix(last, "bench: 6/6 cells, 6 resumed") {
		t.Fatalf("progress ends on %q, want the 6/6 cells, 6 resumed summary\n%s", last, out.String())
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
	experiment := func(h *Harness, id string) Experiment {
		e, _ := h.ByID(id)
		return e
	}
	live := New(cfg)
	want01, want12 := experiment(live, "fig01").Headline, experiment(live, "fig12").Headline
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
	if h.run("Web-Frontend", full).Probes != nil {
		t.Fatal("prewarm re-ran a journaled cell instead of resuming it")
	}
	if got := experiment(h, "fig01").Headline; !reflect.DeepEqual(got, want01) {
		t.Errorf("Fig01 on a resumed harness = %v, want %v", got, want01)
	}
	if got := experiment(h, "fig12").Headline; !reflect.DeepEqual(got, want12) {
		t.Errorf("Fig12 on a resumed harness = %v, want %v", got, want12)
	}

	unavailableRows := func(what string, h *Harness) {
		t.Helper()
		for _, e := range []Experiment{experiment(h, "fig01"), experiment(h, "fig12")} {
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

// TestEachConfigurationSimulatesOnce: over every experiment, ablations
// included, no two simulated runs share an equal configuration, so the
// harness simulates one cell per distinct configuration of a workload: 40
// for the paper's experiments and 46 with the ablations. (When each figure
// keyed its runs by hand it simulated 45 and 53: SN4L, SN4L+Dis (twice),
// SN4L+Dis+BTB and Shotgun also ran under figure-private keys, and so did
// SN4L+Dis+BTB twice more in the ablations.)
func TestEachConfigurationSimulatesOnce(t *testing.T) {
	h := tiny()
	h.cfg.Progress = runner.NewProgress()
	h.All()
	if got := h.cfg.Progress.Snapshot().Done; got != 40 {
		t.Errorf("the paper's experiments simulated %d cells, want 40", got)
	}
	for _, id := range AblationIDs() {
		h.ByID(id)
	}
	if got := h.cfg.Progress.Snapshot().Done; got != 46 {
		t.Errorf("with the ablations the experiments simulated %d cells, want 46", got)
	}

	// A configuration is its RunConfig with the design constructor replaced
	// by a fresh instance, compared by value: two catalog designs built twice
	// compare equal, so equality here is what the simulator sees.
	equal := func(a, b any) bool {
		return sameValue(reflect.ValueOf(a), reflect.ValueOf(b), map[[2]uintptr]bool{})
	}
	for _, e := range prefetch.Catalog() {
		if !equal(e.New(), e.New()) {
			t.Fatalf("two fresh %s instances differ: the comparison below would miss duplicates", e.Name)
		}
	}
	type config struct {
		rc     sim.RunConfig
		design prefetch.Design
	}
	var keys []runKey
	var configs []config
	for k := range h.cache {
		rc := h.runConfig(k)
		c := config{design: rc.NewDesign()}
		rc.NewDesign = nil
		c.rc = rc
		keys, configs = append(keys, k), append(configs, c)
	}
	for i := range configs {
		for j := i + 1; j < len(configs); j++ {
			if equal(configs[i], configs[j]) {
				t.Errorf("%s and %s are one configuration, simulated twice", keys[i], keys[j])
			}
		}
	}
}

// sameValue is reflect.DeepEqual, except that any two non-nil funcs of one
// type are equal: a design's callbacks are its own methods, bound to each
// instance, so DeepEqual would tell two identical designs apart.
func sameValue(a, b reflect.Value, seen map[[2]uintptr]bool) bool {
	if a.IsValid() != b.IsValid() || a.IsValid() && a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Invalid:
		return true
	case reflect.Func:
		return a.IsNil() == b.IsNil()
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		if a.Kind() == reflect.Pointer {
			k := [2]uintptr{a.Pointer(), b.Pointer()}
			if seen[k] {
				return true
			}
			seen[k] = true
		}
		return sameValue(a.Elem(), b.Elem(), seen)
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameValue(a.Field(i), b.Field(i), seen) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameValue(a.Index(i), b.Index(i), seen) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			if bv := b.MapIndex(it.Key()); !bv.IsValid() || !sameValue(it.Value(), bv, seen) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// TestSpecNames: a knob at its catalog value is no variant, and a variant's
// name (its store design tag) lists the moved knobs.
func TestSpecNames(t *testing.T) {
	for _, c := range []struct {
		s    spec
		want string
	}{
		{full, "SN4L+Dis+BTB"},
		{full.with(rluEntries, 8), "SN4L+Dis+BTB"},
		{full.with(rluEntries, 0), "SN4L+Dis+BTB{rlu=0}"},
		{spec{design: "SN4L"}.with(seqEntries, 16<<10), "SN4L"},
		{shotgun.with(btbPercent, 100), "shotgun"},
		{shotgun.with(btbPercent, 25), "shotgun{btb-pct=25}"},
		{baseline.with(perfectL1i, 1).with(perfectBTB, 1), "baseline{perfect-l1i=1,perfect-btb=1}"},
		{spec{design: "baseline", mode: isa.Variable}.with(dvLLC, 1), "baseline"},
		{spec{design: "baseline", mode: isa.Variable}.with(dvLLC, 0), "baseline{dv=0}"},
	} {
		if got := c.s.name(); got != c.want {
			t.Errorf("name = %q, want %q", got, c.want)
		}
	}
	if full.with(rluEntries, 0).with(rluEntries, 8) != full {
		t.Error("moving a knob back to its catalog value leaves a variant")
	}
	defer func() {
		if recover() == nil {
			t.Error("a knob the design lacks was accepted")
		}
	}()
	spec{design: "N4L"}.with(seqEntries, 1)
}
