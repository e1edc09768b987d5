package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// tinySizes shrinks windows and counts so all five workloads, untraced and
// traced, fit in a few seconds. The structure of every workload is intact.
var tinySizes = sizes{
	paperWindow:    2_000,
	sweepWindow:    1_000,
	sweepSeeds:     1,
	jobsPerRound:   1,
	fillJobs:       2,
	resubmitRounds: 1,
	setups:         1,
	verifyEvery:    4,
	queries:        3,
	walkerSteps:    10_000,
}

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

func tinyConfig(t *testing.T, w *workload, traced bool) config {
	cfg := config{seed: 1, rounds: 2, tmp: t.TempDir(), sizes: tinySizes}
	if traced {
		// Two reference rounds, then enough traced ones for the 100 Hz CPU
		// profile to catch the workload: a tiny warm round takes 4 ms.
		cfg.traced, cfg.rounds = true, 3
		if w.name == "svc_warm" {
			cfg.rounds = 40
		}
	}
	return cfg
}

// lastLine decodes the JSON object a run prints last.
func lastLine(t *testing.T, out []byte) (line struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return line
}

// TestManifestMatchesProgram pins BENCHMARK.json to the program's tables in
// both directions: names, units, directions, bounds and the workloads.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	compare := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
			if !name.MatchString(want[i].Name) {
				t.Errorf("%s: name %q is outside [A-Za-z0-9_.-]", kind, want[i].Name)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd)
	compare("per_layer", m.PerLayer, perLayer)
	if m.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json has run_seconds %d, the rounds were sized for %d", m.RunSeconds, runSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25], the loosest the driver accepts", d.Name, d.Bound)
		}
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// requires exactly the declared metrics, each with its unit, no failed
// operation and exit code 0.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads twice")
	}
	start := time.Now()
	m := readManifest(t)
	for _, traced := range []bool{false, true} {
		want := m.EndToEnd
		if traced {
			want = m.PerLayer
		}
		for _, w := range workloads {
			var stdout, stderr bytes.Buffer
			t0 := time.Now()
			code := execute(w, tinyConfig(t, w, traced), "", &stdout, &stderr)
			t.Logf("%s traced=%v: %v", w.name, traced, time.Since(t0).Round(time.Millisecond))
			if code != 0 {
				t.Fatalf("%s traced=%v: exit %d\n%s%s", w.name, traced, code, stdout.Bytes(), stderr.Bytes())
			}
			line := lastLine(t, stdout.Bytes())
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					w.name, traced, line.Correct, line.Attempted, line.Failed)
			}
			for _, d := range want {
				got, ok := line.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s is declared but not printed", w.name, traced, d.Name)
				case got.Unit != d.Unit || got.Value == nil:
					t.Errorf("%s traced=%v: metric %s printed with unit %q value %v, want unit %q",
						w.name, traced, d.Name, got.Unit, got.Value, d.Unit)
				}
				delete(line.Metrics, d.Name)
			}
			for n := range line.Metrics {
				t.Errorf("%s traced=%v: metric %s is printed but not declared", w.name, traced, n)
			}
			if traced {
				checkTraced(t, w.name, stdout.Bytes())
			}
		}
	}
	t.Logf("all workloads, untraced and traced: %v", time.Since(start).Round(time.Millisecond))
}

// checkTraced holds a traced run to the issue's acceptance: CPU shares that
// sum to 1, an overhead ratio, and no simulation on the warm workload.
func checkTraced(t *testing.T, workload string, out []byte) {
	t.Helper()
	line := lastLine(t, out)
	var shares float64
	for n, v := range line.Metrics {
		if strings.HasSuffix(n, ".cpu_share") {
			shares += *v.Value
		}
	}
	if shares < 0.99 || shares > 1.01 {
		t.Errorf("%s: cpu shares sum to %v, want 1.00 ± 0.01", workload, shares)
	}
	if v := *line.Metrics["bench.trace_overhead_ratio"].Value; !(v > 0) {
		t.Errorf("%s: bench.trace_overhead_ratio = %v", workload, v)
	}
	if workload == "svc_warm" {
		if v := *line.Metrics["service.cells_simulated"].Value; v != 0 {
			t.Errorf("svc_warm simulated %v cells in its timed rounds, want 0", v)
		}
		if v := *line.Metrics["service.cells_cached"].Value; !(v > 0) {
			t.Errorf("svc_warm served %v cells from the cache", v)
		}
	}
}

// TestCorruptResultFails corrupts one result on its way into the output
// checks and requires a failed operation and a non-zero exit, on a local
// path and on a streamed one.
func TestCorruptResultFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads")
	}
	for name, corrupt := range map[string]func(*resultBody){
		"run_base4": func(r *resultBody) { r.M.Retired = 0 },            // a run that retired nothing
		"svc_cold":  func(r *resultBody) { r.PerCore[0].StallICache++ }, // a cycle charged twice
	} {
		w, _ := workloadByName(name)
		cfg := tinyConfig(t, w, false)
		var once atomic.Bool
		cfg.tamper = func(r *resultBody) {
			if once.CompareAndSwap(false, true) {
				corrupt(r)
			}
		}
		var stdout, stderr bytes.Buffer
		if code := execute(w, cfg, "", &stdout, &stderr); code == 0 {
			t.Errorf("%s with one result corrupted: exit 0, want non-zero\n%s", name, stdout.Bytes())
			continue
		}
		if line := lastLine(t, stdout.Bytes()); line.Correct || line.Failed != 1 {
			t.Errorf("%s with one result corrupted: correct=%v failed=%d, want false and 1", name, line.Correct, line.Failed)
		}
	}
}

// TestJudge pins the comparison rule on the cases that matter: a clear win,
// a clear loss, a noisy parent that must not read as unchanged, and a quiet
// pair that may.
func TestJudge(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.10}
	seq := func(base, step float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = base + step*float64(i)
		}
		return out
	}
	for _, c := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"every pair better, beyond the parent's quartiles", seq(100, 0.1), seq(80, 0.1), improved},
		{"every pair worse, beyond the parent's quartiles", seq(100, 0.1), seq(120, 0.1), regressed},
		{"same numbers", seq(100, 0.1), seq(100, 0.1), unchanged},
		{"parent spread wider than the bound", seq(100, 5), seq(101, 5), unresolved},
		{"median past the bound but pairs split", []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100},
			[]float64{90, 90, 90, 90, 120, 120, 120, 120, 120, 120}, unresolved},
	} {
		if got := judge(lower, c.parent, c.change).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	// Python: statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	if got, want := quartiles(seq(1, 1)), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

// TestComparePairs pins how compare pairs runs: per workload and seed, the
// primary pairings only, and never with a run left over.
func TestComparePairs(t *testing.T) {
	run := func(seed int64, mcps float64) *result {
		return &result{Workload: "run_base4", Seed: seed, Metrics: map[string]outMetric{
			"sim_mcps":    {Value: mcps},
			"cells_per_s": {Value: mcps}, // secondary on run_base4
		}}
	}
	set := func(runs ...*result) map[runKey][]*result {
		out := map[runKey][]*result{}
		for _, r := range runs {
			k := runKey{r.Workload, r.Seed, r.Traced}
			out[k] = append(out[k], r)
		}
		return out
	}
	var out bytes.Buffer
	regressed, err := compareSets(&out, set(run(1, 10), run(2, 20)), set(run(1, 10), run(2, 20)))
	if err != nil || regressed {
		t.Fatalf("equal sets: regressed=%v err=%v", regressed, err)
	}
	if got := strings.Count(out.String(), "sim_mcps"); got != 2 {
		t.Errorf("sim_mcps judged in %d rows, want one per seed:\n%s", got, out.String())
	}
	if strings.Contains(out.String(), "cells_per_s") {
		t.Errorf("cells_per_s is secondary on run_base4 and must not be judged:\n%s", out.String())
	}
	if _, err := compareSets(&out, set(run(1, 10), run(1, 10)), set(run(1, 10))); err == nil {
		t.Error("a parent run without a pair was dropped silently")
	}
	if _, err := compareSets(&out, set(run(1, 10)), set(run(1, 10), run(2, 20))); err == nil {
		t.Error("a change run at a seed the parent lacks was dropped silently")
	}
}
