// Command benchmark is the repo's end-to-end benchmark: five workloads
// driven through the program's public entry points (sim.RunChecked,
// runner.Sweep, service.New/Start + worker.Run over loopback HTTP), six
// end-to-end metrics, and a traced mode that adds the per-layer cost model.
// BENCHMARK.json at the repo root declares the same names; README.md in
// this directory is the glossary.
//
//	bash benchmark/run.sh --workload svc_cold --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload all --out results/a
//	bash benchmark/run.sh compare results/a results/b
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "one of "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "offsets every simulation seed; the only input that varies (2 is held out for claims)")
	seconds := fs.Float64("seconds", runSeconds, "run length: scales each workload's fixed number of timed rounds, which was sized for 15")
	rounds := fs.Int("rounds", 0, "run exactly this many timed rounds, whatever -seconds says")
	trace := fs.Int("trace", 0, "1 = traced run: CPU profile, spans and timed calls; prints the per-layer metrics")
	out := fs.String("out", "", "directory for result.json (and trace.json, cpu.pprof when traced)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seed < 1 || *seconds <= 0 || *rounds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	if *workload == "all" {
		return runAll(args, *out, stdout, stderr)
	}
	w, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s, or all)\n",
			*workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *rounds == 0 {
		*rounds = roundsFor(w, *seconds)
	}
	cfg := config{
		seed:   *seed,
		rounds: *rounds,
		traced: *trace == 1,
		// Scratch data (service data dirs, journals, stores) stays inside
		// the checkout; one directory per process so runs cannot collide.
		tmp:   filepath.Join(".bench_build", "tmp", fmt.Sprintf("%s-%d", w.name, os.Getpid())),
		sizes: fullSizes,
	}
	return execute(w, cfg, *out, stdout, stderr)
}

// execute runs one workload, prints its result and returns the exit code:
// 0 only when every operation succeeded and every output check passed.
func execute(w *workload, cfg config, out string, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(cfg.tmp)
	res, err := run(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if out != "" {
		if err := res.writeFiles(out); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	res.print(stdout)
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs the five workloads in sequence, each in a child process so
// workloads do not share a heap or a peak RSS.
func runAll(args []string, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	code := 0
	for _, name := range workloadNames() {
		child := append([]string(nil), args...)
		child = append(child, "-workload", name) // later flags win
		if out != "" {
			child = append(child, "-out", filepath.Join(out, name))
		}
		cmd := exec.Command(self, child...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// config is one run's inputs.
type config struct {
	seed   int64
	rounds int // timed rounds: fixed work, whatever the host's speed
	traced bool
	tmp    string
	sizes  sizes
	// tamper, when set, is applied to every result just before it is
	// checked. It exists for the smoke test, which corrupts a result and
	// expects the run to fail.
	tamper func(*resultBody)
}

// result is everything one run reports; result.json is this struct.
type result struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Traced    bool                 `json:"traced"`
	Nproc     int                  `json:"nproc"`
	GoVersion string               `json:"go_version"`
	Commit    string               `json:"git_commit"`
	Rounds    int                  `json:"rounds"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"` // first few, for diagnosis
	Metrics   map[string]outMetric `json:"metrics"`
	// Notes are printed but are not metrics: generator lateness, the paper's
	// numbers beside the model's, sizes.
	Notes []string `json:"notes,omitempty"`

	spans   []span
	profile []byte
}

type outMetric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// run executes one workload: set-up, timed rounds (untraced, or a short
// untraced reference followed by traced rounds), checks, and in traced mode
// the per-layer measurements.
func run(w *workload, cfg config) (*result, error) {
	b := &bench{cfg: cfg, m: metricSet{}, started: time.Now(), warm: min(w.warmup, cfg.rounds-1)}
	res := &result{
		Workload: w.name, Seed: cfg.seed, Traced: cfg.traced,
		Nproc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: gitCommit(),
	}
	gcBase := readGC()
	if err := w.run(b); err != nil {
		return nil, err
	}
	b.m.set("peak_rss_mb", peakRSSMB(), 0)
	if cfg.traced {
		b.reportProcess(gcBase)
	}
	b.finishSetup()
	if cfg.traced {
		if err := b.reportCPUShares(); err != nil {
			return nil, err
		}
	}

	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	res.Metrics = make(map[string]outMetric, len(defs))
	for _, d := range defs {
		v := b.m[d.Name]
		res.Metrics[d.Name] = outMetric{Value: v.V, Unit: d.Unit, Samples: v.Samples}
	}
	res.Rounds = b.rounds
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Failures = b.failures
	res.Notes = b.notes
	res.Correct = b.failed == 0 && b.attempted > 0
	if !cfg.traced {
		// Every end-to-end metric must be a real measurement: a workload
		// that could not produce one has failed, whatever its checks said.
		for _, d := range endToEnd {
			if v := res.Metrics[d.Name].Value; !(v > 0) {
				res.Correct = false
				res.Failures = append(res.Failures, fmt.Sprintf("metric %s = %v, want > 0", d.Name, v))
			}
		}
	}
	res.spans, res.profile = b.spans, b.profile
	return res, nil
}

// print writes the human-readable table and, as the last line, the JSON
// object the driver reads.
func (r *result) print(w io.Writer) {
	mode := "end-to-end (untraced)"
	if r.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s  rounds %d  nproc %d  %s  commit %s\n",
		r.Workload, r.Seed, mode, r.Rounds, r.Nproc, r.GoVersion, r.Commit)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		samples := ""
		if m.Samples > 0 {
			samples = fmt.Sprintf("  (n=%d)", m.Samples)
		}
		fmt.Fprintf(w, "  %-40s %16.6g %-10s%s\n", n, m.Value, m.Unit, samples)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]lineMetric, len(r.Metrics))}
	for n, m := range r.Metrics {
		line.Metrics[n] = lineMetric{m.Value, m.Unit}
	}
	b, _ := json.Marshal(line) // plain numbers, strings and bools cannot fail to encode
	fmt.Fprintf(w, "%s\n", b)
}

// writeFiles stores result.json and, for a traced run, trace.json and
// cpu.pprof under dir.
func (r *result) writeFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if !r.Traced {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := writeTrace(f, r.Workload, r.spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "cpu.pprof"), r.profile, 0o644)
}

// gitCommit is the VCS revision stamped into the binary, "unknown" when the
// build was not made from a git checkout (the driver's checkouts are not).
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// errFirstRound ends a run whose first round verified nothing: the exact
// metrics are defined over that round's cells.
var errFirstRound = errors.New("no cell of the first round passed its checks")
