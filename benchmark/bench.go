package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"dnc/internal/isa"
	"dnc/internal/service/workerproto"
	"dnc/internal/sim/runner"
)

// bench is the state of one run: its accounting of operations, the metrics
// measured so far and, in traced mode, the spans and the CPU profile.
type bench struct {
	cfg     config
	m       metricSet
	started time.Time
	rounds  int
	warm    int // leading rounds the workload leaves out of its medians
	notes   []string

	// Set-up: the presets whose programs it generated, each generation's
	// time per preset in ms (finishSetup adds repeats), and the time of
	// whatever else it did, which happens once.
	setupPresets []string
	genMs        [][]float64
	setupOnce    time.Duration

	mu        sync.Mutex // guards everything below: clients and workers run concurrently
	attempted int
	failed    int
	failures  []string
	tracing   bool // spans are recorded only while the traced rounds run
	spans     []span
	profile   []byte
}

// op counts one attempted operation (a run, a cell, a job, a query); a
// non-nil err makes it a failed one.
func (b *bench) op(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < 8 {
			b.failures = append(b.failures, err.Error())
		}
	}
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// seedStride separates the simulation seeds of different -seed values:
// run N draws from ((N-1)*seedStride, N*seedStride], so no two benchmark
// seeds ever simulate the same cell.
const seedStride = 1_000_000

// simSeed is the k-th simulation seed of this run.
func (b *bench) simSeed(k int) int64 { return (b.cfg.seed-1)*seedStride + int64(k) + 1 }

// cell names one simulation point. Every workload builds its runs from
// workerproto.CellSpec, the type the service, the workers and the sweep
// CLIs all share, so a cell means the same run on every path.
func cell(workload, design string, cores int, window uint64, seed int64) workerproto.CellSpec {
	return workerproto.CellSpec{
		Workload: workload, Design: design, Mode: isa.Fixed,
		Cores: cores, Warm: window, Measure: window, Seed: seed,
	}
}

// resultBody is a result in its wire form: what the journal, the cache and
// the results stream carry, and what the output checks read.
type resultBody = runner.ResultJSON

// check is the output check every result passes through, whatever path
// produced it: instructions retired, and every cycle of every core either
// busy or charged to exactly one stall cause.
func (b *bench) check(r *resultBody) error {
	if r == nil {
		return fmt.Errorf("result body missing")
	}
	if b.cfg.tamper != nil {
		b.cfg.tamper(r)
	}
	if r.M.Retired == 0 {
		return fmt.Errorf("%s/%s: retired 0 instructions", r.Workload, r.Design)
	}
	if got := r.M.BusyCycles + r.M.StallCycles(); got != r.M.Cycles {
		return fmt.Errorf("%s/%s: busy+stalls = %d, cycles = %d", r.Workload, r.Design, got, r.M.Cycles)
	}
	for i := range r.PerCore {
		c := &r.PerCore[i]
		if got := c.BusyCycles + c.StallCycles(); got != c.Cycles || c.Retired == 0 {
			return fmt.Errorf("%s/%s core %d: busy+stalls = %d, cycles = %d, retired = %d",
				r.Workload, r.Design, i, got, c.Cycles, c.Retired)
		}
	}
	return nil
}

// measure runs the timed phase: cfg.rounds rounds of fixed work, the
// workload's warm-up rounds first. Untraced, every round lands in plain.
// Traced, the warm-up rounds and a third of the rounds (two at least) run
// untraced as the reference for bench.trace_overhead_ratio and the rest runs
// with the CPU profile and spans on and lands in traced.
func measure[S any](b *bench, round func(i int) (S, error)) (plain, traced []S, err error) {
	phase := func(n int) ([]S, error) {
		out := make([]S, 0, n)
		for len(out) < n {
			s, err := round(b.rounds)
			if err != nil {
				return out, err
			}
			b.rounds++
			out = append(out, s)
		}
		return out, nil
	}
	if !b.cfg.traced {
		plain, err = phase(b.cfg.rounds)
		return plain, nil, err
	}
	refRounds := b.warm + max(2, b.cfg.rounds/3)
	if plain, err = phase(refRounds); err != nil {
		return plain, nil, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return plain, nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	b.setTracing(true)
	traced, err = phase(max(1, b.cfg.rounds-refRounds))
	b.setTracing(false)
	pprof.StopCPUProfile()
	b.profile = prof.Bytes()
	return plain, traced, err
}

// roundSample is what one timed round of sweep_local or svc_* measured.
type roundSample struct {
	wall     float64   // seconds
	verified int       // cells that passed every check
	lat      []float64 // ms per job (sweep_local: the sweep is the job)
	query    []float64 // ms per query (svc_warm)
}

func (r roundSample) rate() float64 { return ratio(float64(r.verified), r.wall) }

// setRoundMetrics sets the end-to-end timings of a workload measured in
// rounds: each round's rate and median latency, then the median over rounds
// of each. It returns cells_per_s.
func (b *bench) setRoundMetrics(rs []roundSample, cyclesPerCell float64) float64 {
	m := b.m
	var rates, p50, lat, query []float64
	for _, r := range rs {
		rates = append(rates, r.rate())
		p50 = append(p50, percentile(r.lat, 50))
		lat = append(lat, r.lat...)
		query = append(query, r.query...)
	}
	// The metrics the issue wanted end to end and the host cannot hold
	// (README.md): printed with every run all the same, over all its jobs.
	b.note("not gated: job_latency_ms_p90 %.4g ms, job_latency_ms_p99 %.4g ms over %d jobs",
		percentile(lat, 90), percentile(lat, 99), len(lat))
	if len(query) > 0 {
		b.note("not gated: query_ms_p50 %.4g ms over %d queries", median(query), len(query))
	}
	n := len(rs)
	rate := median(rates)
	b.note("round rates, cells/s: min %.4g, quartiles %.4g / %.4g / %.4g, max %.4g",
		percentile(rates, 0), percentile(rates, 25), rate, percentile(rates, 75), percentile(rates, 100))
	m.set("cells_per_s", rate, n)
	// Secondary: the simulated cycles those cells stand for.
	m.set("sim_mcps", rate*cyclesPerCell/1e6, n)
	m.set("job_latency_ms_p50", median(p50), n)
	return rate
}

// setTracedRoundMetrics sets what the traced rounds alone provide, the tail
// latencies over all their jobs, and returns their median rate.
func setTracedRoundMetrics(m metricSet, rs []roundSample) float64 {
	var rates, lat []float64
	for _, r := range rs {
		rates = append(rates, r.rate())
		lat = append(lat, r.lat...)
	}
	m.set("bench.job_latency_ms_p90", percentile(lat, 90), len(lat))
	m.set("bench.job_latency_ms_p99", percentile(lat, 99), len(lat))
	return median(rates)
}

func (b *bench) setTracing(on bool) {
	b.mu.Lock()
	b.tracing = on
	b.mu.Unlock()
}

func (b *bench) isTracing() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tracing
}

// gcStats snapshots the collector's counters so a phase can report its own
// cycles and pauses.
type gcStats struct {
	cycles  uint32
	pauseNs uint64
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{ms.NumGC, ms.PauseTotalNs}
}

// reportProcess sets the process-wide per-layer metrics: collector work
// since the given snapshot, heap high-water and CPU time.
func (b *bench) reportProcess(since gcStats) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.m.set("go_gc.cycles", float64(ms.NumGC-since.cycles), 0)
	b.m.set("go_gc.pause_ms_total", float64(ms.PauseTotalNs-since.pauseNs)/1e6, 0)
	// HeapSys only grows: it is the most heap the process ever mapped.
	b.m.set("go_heap.peak_mb", float64(ms.HeapSys)/(1<<20), 0)
	b.m.set("go_proc.cpu_s", cpuSeconds(), 0)
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only for a bad argument; a zero Rusage
	// would show as a 0 metric, which the run rejects.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// peakRSSMB is the process's maximum resident set (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// cpuSeconds is user plus system CPU time of the process so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
