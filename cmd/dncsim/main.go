// Command dncsim runs one simulation: a workload under a frontend design,
// printing the measured frontend statistics and, when a baseline comparison
// is requested, the derived coverage/FSCR/speedup metrics.
//
// Usage:
//
//	dncsim -workload Web-Zeus -design SN4L+Dis+BTB [-cores 16] [-warm 200000] [-measure 200000] [-mode fixed|variable] [-baseline]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"

	wl "dnc/internal/cfg"
	"dnc/internal/isa"
	"dnc/internal/obs"
	"dnc/internal/prefetch"
	"dnc/internal/sim"
	"dnc/internal/sim/difftest"
	"dnc/internal/workloads"
)

func main() {
	workload := flag.String("workload", "Web-Zeus", "workload name (see -listworkloads)")
	design := flag.String("design", "SN4L+Dis+BTB", "frontend design (see -listdesigns)")
	cores := flag.Int("cores", 16, "active cores on the 4x4 mesh")
	warm := flag.Uint64("warm", 200_000, "warm-up cycles")
	measure := flag.Uint64("measure", 200_000, "measurement cycles")
	seed := flag.Int64("seed", 1, "sample seed")
	mode := flag.String("mode", "fixed", "ISA mode: fixed or variable")
	baseline := flag.Bool("baseline", false, "also run the no-prefetch baseline and report derived metrics")
	timeout := flag.Duration("timeout", 0, "abort the simulation after this wall-clock budget (0 = none)")
	ckptPath := flag.String("checkpoint-path", "", "snapshot the run into this file every -checkpoint-every cycles")
	ckptEvery := flag.Uint64("checkpoint-every", 65536, "snapshot cadence in simulated cycles (with -checkpoint-path)")
	resume := flag.String("resume", "", "resume the run from this snapshot file instead of starting at cycle zero")
	verify := flag.Bool("verify", false, "differentially validate designs against the reference oracle instead of reporting performance (all designs unless -design is given explicitly; honors -workload/-cores/-warm/-measure/-verify-seeds)")
	verifySeeds := flag.Int("verify-seeds", 3, "independent walker seeds per design with -verify")
	obsOn := flag.Bool("obs", false, "enable the observability layer: latency/occupancy histograms and stall attribution summaries")
	traceOut := flag.String("trace-out", "", "export the measurement window's event trace as Chrome trace_event JSON (load in ui.perfetto.dev); implies -obs")
	traceEvents := flag.Int("trace-events", 1<<16, "event tracer ring capacity with -trace-out (keeps the trailing events)")
	listD := flag.Bool("listdesigns", false, "list design names and exit")
	listW := flag.Bool("listworkloads", false, "list workload names and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit (go tool pprof)")
	intraJobs := flag.Int("intra-jobs", 0, "shard this run's cores across this many goroutines (0 = idle CPUs, 1 = serial); bit-exact either way")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dncsim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dncsim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dncsim: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "dncsim: -memprofile: %v\n", err)
			}
		}()
	}

	if *listD {
		var names []string
		for _, e := range prefetch.Catalog() {
			names = append(names, e.Name)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}
	if *listW {
		for _, n := range workloads.Names {
			fmt.Println(n)
		}
		return
	}

	// The design set and its paper configurations live in prefetch.Catalog(),
	// shared with the differential harness so -verify covers exactly what
	// the CLI can run.
	d, ok := prefetch.FindDesign(*design)
	if !ok {
		fmt.Fprintf(os.Stderr, "dncsim: unknown design %q (see -listdesigns)\n", *design)
		os.Exit(2)
	}
	m := isa.Fixed
	if *mode == "variable" {
		m = isa.Variable
	}

	if *verify {
		entries := prefetch.Catalog()
		designGiven := false
		flag.Visit(func(f *flag.Flag) { designGiven = designGiven || f.Name == "design" })
		if designGiven {
			entries = []prefetch.CatalogEntry{d}
		}
		runVerify(entries, workloads.Params(*workload, m), *cores, *warm, *measure, *verifySeeds)
		return
	}

	rc := sim.RunConfig{
		Workload:      workloads.Params(*workload, m),
		NewDesign:     d.New,
		Cores:         *cores,
		WarmCycles:    *warm,
		MeasureCycles: *measure,
		Seed:          *seed,
		ResumeFrom:    *resume,
		IntraJobs:     *intraJobs,
	}
	if *ckptPath != "" {
		rc.CheckpointPath = *ckptPath
		rc.CheckpointEvery = *ckptEvery
	}
	if *obsOn || *traceOut != "" {
		oc := &obs.Config{}
		if *traceOut != "" {
			oc.TraceEvents = *traceEvents
		}
		rc.Obs = oc
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runOne := func(rc sim.RunConfig) sim.Result {
		rctx := ctx
		if *timeout > 0 {
			var cancel context.CancelFunc
			rctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		r, err := sim.RunChecked(rctx, rc)
		if err != nil {
			// Failures exit cleanly with a diagnostic: a livelocked design
			// renders its stall snapshot, a recovered panic its stack.
			fmt.Fprintf(os.Stderr, "dncsim: %v\n", err)
			os.Exit(1)
		}
		return r
	}
	r := runOne(rc)
	// Provenance goes to stderr: the report on stdout is the same bytes on
	// any engine and shard count.
	fmt.Fprintf(os.Stderr, "dncsim: %s engine on %d shard(s)\n", r.Engine, r.Shards)
	fmt.Fprintf(os.Stderr, "dncsim: LLC holds %d of %d lines at measure start, %d at its end; %d evictions in the window\n",
		r.LLCOccupancy[0], rc.LLC.Normalized().SizeBytes/isa.BlockBytes, r.LLCOccupancy[1], r.LLCStats.Evictions)
	if coreCycles := uint64(len(r.PerCore)) * (*warm + *measure); coreCycles > 0 {
		fmt.Fprintf(os.Stderr, "dncsim: ticked %d of %d core-cycles (%.1f%%), fast-forwarded the rest\n",
			r.TickedCycles, coreCycles, 100*float64(r.TickedCycles)/float64(coreCycles))
	}
	report(r)
	reportObs(r)
	if *traceOut != "" && r.Obs != nil {
		meta := obs.TraceMeta{Workload: r.Workload, Design: r.Design, Cores: len(r.PerCore)}
		if err := obs.WritePerfettoFile(*traceOut, r.Obs.Events, meta); err != nil {
			fmt.Fprintf(os.Stderr, "dncsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\ntrace: %d events written to %s (%d emitted, %d dropped by the ring)\n",
			len(r.Obs.Events), *traceOut, r.Obs.TraceTotal, r.Obs.TraceDropped)
	}

	if *baseline && *design != "baseline" {
		b, _ := prefetch.FindDesign("baseline")
		rc.NewDesign = b.New
		// The snapshot (and any resume point) belongs to the main design's
		// run; the baseline comparison always runs fresh. The comparison is
		// also uninstrumented: derived metrics need no histograms.
		rc.CheckpointPath, rc.CheckpointEvery, rc.ResumeFrom = "", 0, ""
		rc.Obs = nil
		base := runOne(rc)
		fmt.Println()
		fmt.Printf("derived vs baseline (IPC %.3f):\n", base.M.IPC())
		fmt.Printf("  speedup            %.3f\n", sim.Speedup(r, base))
		fmt.Printf("  miss coverage      %.1f%%\n", 100*sim.MissCoverage(r, base))
		fmt.Printf("  seq miss coverage  %.1f%%\n", 100*sim.SeqMissCoverage(r, base))
		fmt.Printf("  FSCR               %.1f%%\n", 100*sim.FSCR(r, base))
		fmt.Printf("  bandwidth ratio    %.2fx\n", sim.BandwidthRatio(r, base))
		fmt.Printf("  cache lookup ratio %.2fx\n", sim.LookupRatio(r, base))
	}
}

// runVerify drives every entry through the differential harness: each run
// executes the timing simulator with the design shimmed against the
// functional reference model, asserting the retired instruction stream and
// demand block-transition stream match instruction for instruction. Any
// divergence prints a first-divergence report (with the surrounding event
// window) and the process exits nonzero.
func runVerify(entries []prefetch.CatalogEntry, p wl.Params, cores int, warm, measure uint64, seeds int) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	failed := false
	for _, e := range entries {
		for s := int64(1); s <= int64(seeds); s++ {
			_, rep, err := difftest.Run(ctx, difftest.Options{
				RunConfig: sim.RunConfig{Workload: p, Seed: s, NewDesign: e.New,
					Cores: cores, WarmCycles: warm, MeasureCycles: measure},
				Strict: true,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "dncsim: verify %s seed %d: %v\n", e.Name, s, err)
				os.Exit(1)
			}
			fmt.Println(rep)
			failed = failed || !rep.Ok()
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "dncsim: verification FAILED — the timing simulator diverged from the reference model")
		os.Exit(1)
	}
	fmt.Println("verification passed: all runs equivalent to the reference model")
}

func report(r sim.Result) {
	m := &r.M
	fmt.Printf("%s on %s (%d cores)\n", r.Design, r.Workload, len(r.PerCore))
	fmt.Printf("  IPC                %.3f\n", m.IPC())
	fmt.Printf("  L1i miss MPKI      %.1f (seq %.0f%%, late %d)\n",
		m.MPKI(m.DemandMisses), 100*m.SeqMissFraction(), m.LateMisses)
	fmt.Printf("  branch MPKI        %.1f mispredict, %.1f BTB-miss\n",
		m.MPKI(m.Mispredicts), m.MPKI(m.BTBMissEvents))
	fmt.Printf("  prefetches         %d issued, %d useful, %d evicted unused\n",
		m.PrefetchesIssued, m.UsefulPrefetches, m.UselessEvicts)
	fmt.Printf("  CMAL               %.1f%%\n", 100*m.CMAL())
	fmt.Printf("  avg LLC latency    %.1f cycles\n", m.AvgLLCLatency())
	total := float64(m.Cycles)
	fmt.Printf("  stall cycles       icache %.1f%%, ftq %.1f%%, btb %.1f%%, mispredict %.1f%%, backend %.1f%%\n",
		100*float64(m.StallICache)/total, 100*float64(m.StallFTQ)/total,
		100*float64(m.StallBTB)/total, 100*float64(m.StallMispred)/total,
		100*float64(m.StallBackend)/total)
	fmt.Printf("  design storage     %.1f KB\n", float64(r.StorageBits)/8/1024)
}

// reportObs renders the observability snapshot: the per-cause cycle
// partition (which sums to 100% by the conservation invariant) and the
// latency/occupancy histogram summaries.
func reportObs(r sim.Result) {
	if r.Obs == nil {
		return
	}
	m := &r.M
	fmt.Println("\ncycle attribution (all cores, conservation-checked):")
	for cause, cycles := range m.StallBreakdown() {
		if cycles == 0 {
			continue
		}
		fmt.Printf("  %-20s %6.2f%%  (%d cycles)\n",
			obs.StallCause(cause), 100*float64(cycles)/float64(m.Cycles), cycles)
	}
	fmt.Println("histograms:")
	for _, h := range r.Obs.Hists {
		fmt.Printf("  %s\n", h)
	}
	for _, c := range r.Obs.Counters {
		if c.Value > 0 {
			fmt.Printf("  %s=%d\n", c.Name, c.Value)
		}
	}
}
