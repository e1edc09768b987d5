package main

import "math"

// workload is one set of inputs the benchmark runs: a fixed number of
// rounds of fixed work, so a run of the parent and a run of a change do the
// same thing however fast either is.
type workload struct {
	name string
	why  string // one line; BENCHMARK.json carries the same text
	// rounds is the timed rounds of a full-size run at -seconds =
	// runSeconds, sized on the reference host (README.md) so that set-up,
	// rounds and checks end inside the driver's cap.
	rounds int
	// warmup is how many of those rounds, the first ones, run and are checked
	// like the rest but are left out of the medians.
	warmup int
	run    func(b *bench) error
}

// runSeconds is run_seconds of BENCHMARK.json: the -seconds value the round
// counts below were sized for.
const runSeconds = 15

// roundsFor is how many timed rounds w runs under -seconds: the sized count
// scaled by seconds/runSeconds, two at least. It depends on the argument
// alone, never on how fast rounds turn out to be.
func roundsFor(w *workload, seconds float64) int {
	return max(2, int(math.Round(float64(w.rounds)*seconds/runSeconds)))
}

// sizes are the workload shapes. fullSizes is the benchmark; the smoke test
// shrinks the windows and counts, never the structure.
type sizes struct {
	paperWindow    uint64 // warm = measure cycles of the run_* workloads
	sweepWindow    uint64 // warm = measure cycles of the sweep and service cells
	sweepSeeds     int    // seeds per (workload, design) in one sweep_local round
	jobsPerRound   int    // svc_cold: jobs each client submits per round
	fillJobs       int    // svc_warm: cold jobs that fill the cache in set-up
	resubmitRounds int    // svc_warm, traced: resubmission rounds after the timed ones (untraced: one)
	setups         int    // times program generation is repeated for setup_s
	verifyEvery    int    // svc_*: one cell in this many is re-simulated directly
	queries        int    // svc_cold, traced: queries timed against the final store
	walkerSteps    int    // cfg.walker_ns_per_step
}

var fullSizes = sizes{
	paperWindow:    200_000,
	sweepWindow:    20_000,
	sweepSeeds:     6,
	jobsPerRound:   5,
	fillJobs:       40,
	resubmitRounds: 3,
	setups:         5,
	verifyEvery:    8,
	queries:        100,
	walkerSteps:    1_000_000,
}

const dncDesign = "SN4L+Dis+BTB"

// Code footprints of 6 MB, 4 MB and under 1 MB against the 32 KB L1i.
var runPresets = []string{"OLTP-DB-A", "Media-Streaming", "Web-Frontend"}

// The sweep and service cells: a mild and a tight working set, on 2 cores.
var cellPresets = []string{"Web-Zeus", "OLTP-DB-B"}

const cellCores = 2

var sweepDesigns = []string{"baseline", "NL", "SN4L", dncDesign, "shotgun", "confluence"}

var workloads = []*workload{
	{
		name:   "run_dnc16",
		why:    "paper-scale cell, 16 busy cores under SN4L+Dis+BTB: prefetch, core and uncore do the work; sched, runner, service none",
		rounds: 4,
		run:    runSerial(16, dncDesign),
	},
	{
		name:   "run_base4",
		why:    "4 mostly stalled baseline cores: the engine loop (fast-forward, wheel) dominates and the design path is idle",
		rounds: 30,
		run:    runSerial(4, "baseline"),
	},
	{
		name:   "sweep_local",
		why:    "dncbench path, 72 short cells per runner.Sweep with a journal: per-run fixed cost, result retention and GC are the work",
		rounds: 9,
		warmup: 2,
		run:    runSweep,
	},
	{
		name:   "svc_cold",
		why:    "dncserved write path, never-seen 8-cell jobs: queue, lease, HTTP/JSON, verification and three durable writes per cell",
		rounds: 10,
		run:    func(b *bench) error { return runService(b, false) },
	},
	{
		name:   "svc_warm",
		why:    "dncserved read path over a filled cache and store: read finished jobs' results back, verify, then one /v1/query each; zero simulations",
		rounds: 150,
		run:    func(b *bench) error { return runService(b, true) },
	},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}
