package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dnc/internal/cfg"
	"dnc/internal/isa"
	"dnc/internal/resultstore"
	"dnc/internal/service"
	"dnc/internal/service/workerproto"
	"dnc/internal/sim"
	"dnc/internal/sim/runner"
	wl "dnc/internal/workloads"
)

// storedCell is one verified result with the identity the store files it
// under.
type storedCell struct {
	spec workerproto.CellSpec
	body *resultBody
}

// buildPrograms is the set-up every workload shares: it generates the
// programs of the given presets through sim.Program, so that every later
// run finds them cached, with the heap collected after each. Generation
// leaves several times a program's size in garbage, and how much of it is
// resident when the next program is built would otherwise decide the
// process's peak RSS (191 to 245 MB over four identical set-ups, 170 to 178
// MB with the collections). finishSetup repeats it once the run is over.
func (b *bench) buildPrograms(presets []string) {
	b.setupPresets = presets
	b.generate(func(p cfg.Params) { sim.Program(p) })
}

// generate times one generation of every set-up preset.
func (b *bench) generate(gen func(cfg.Params)) {
	ms := make([]float64, len(b.setupPresets))
	for i, p := range b.setupPresets {
		t := time.Now()
		gen(wl.Params(p, isa.Fixed))
		ms[i] = millis(time.Since(t))
		runtime.GC()
	}
	b.genMs = append(b.genMs, ms)
}

// finishSetup sets setup_s and cfg.generate_ms. One generation takes 0.2 to
// 0.6 s and reads a quarter apart from one run to the next, so it is
// repeated, with the generator sim.Program calls, and the median counts.
// The repeats come after the timed rounds and after the peak RSS is read,
// where they can disturb neither; what set-up did besides (start a server,
// fill its cache) happened once and is added as measured.
func (b *bench) finishSetup() {
	for len(b.genMs) < b.cfg.sizes.setups {
		b.generate(func(p cfg.Params) { cfg.Generate(p) })
	}
	var totals, perPreset []float64
	for _, ms := range b.genMs {
		totals = append(totals, sum(ms)/1000)
	}
	for i := range b.setupPresets {
		var ms []float64
		for _, g := range b.genMs {
			ms = append(ms, g[i])
		}
		perPreset = append(perPreset, median(ms))
	}
	b.m.set("setup_s", median(totals)+b.setupOnce.Seconds(), len(totals))
	b.m.set("cfg.generate_ms", median(perPreset), len(perPreset))
}

// runSerial is the dncsim path: one sim.RunChecked after another, one run
// per preset per round, programs built in set-up.
func runSerial(cores int, design string) func(b *bench) error {
	return func(b *bench) error {
		ctx := context.Background()
		window := b.cfg.sizes.paperWindow
		b.buildPrograms(runPresets)

		type sample struct {
			wall  []float64 // seconds per run, indexed like runPresets; 0 = the run failed
			cells []storedCell
		}
		round := func(i int) (sample, error) {
			s := sample{wall: make([]float64, len(runPresets))}
			rid := b.startSpan(0, "rounds", fmt.Sprintf("round %d", i))
			for k := range runPresets {
				p := (k + i) % len(runPresets) // the order rotates from round to round
				spec := cell(runPresets[p], design, cores, window, b.simSeed(i))
				// Every run starts from a collected heap, as a dncsim process
				// would; the collection is not part of the run's time.
				runtime.GC()
				sid := b.startSpan(rid, "runs", "sim.RunChecked "+runPresets[p])
				t := time.Now()
				res, err := sim.RunChecked(ctx, spec.RunConfig())
				wall := time.Since(t)
				b.endSpan(sid)
				var body *resultBody
				if err == nil {
					body = runner.NewResultJSON(res)
					err = b.check(body)
				}
				b.op(err)
				if err == nil {
					s.wall[p] = wall.Seconds()
					s.cells = append(s.cells, storedCell{spec, body})
				}
			}
			b.endSpan(rid)
			return s, nil
		}
		plain, traced, err := measure(b, round)
		if err != nil {
			return err
		}

		// Per preset, the median run time over the rounds' seeds; every run_*
		// timing derives from those three numbers.
		coreCycles := float64(cores) * float64(2*window)
		summarize := func(rs []sample) (mcps float64, lat, all []float64) {
			for p := range runPresets {
				var walls []float64
				for _, r := range rs {
					if r.wall[p] > 0 {
						walls = append(walls, r.wall[p]*1000)
					}
				}
				lat = append(lat, median(walls))
				all = append(all, walls...)
			}
			return ratio(float64(len(lat))*coreCycles/1e6, sum(lat)/1000), lat, all
		}
		mcps, lat, all := summarize(plain)
		b.note("not gated: job_latency_ms_p90 %.4g ms, job_latency_ms_p99 %.4g ms over %d jobs",
			percentile(all, 90), percentile(all, 99), len(all))
		n := len(plain)
		b.m.set("sim_mcps", mcps, n)
		first := plain[0].cells
		if len(first) == 0 {
			return errFirstRound
		}
		// Secondary here: a cell is one run, a job's latency one run's time,
		// and the data a run leaves is its result in the wire form the
		// journal, the cache and the results stream all carry.
		b.m.set("cells_per_s", ratio(float64(len(lat)), sum(lat)/1000), n)
		b.m.set("job_latency_ms_p50", percentile(lat, 50), n)
		var jsonBytes int
		for _, c := range first {
			enc, err := json.Marshal(c.body)
			if err != nil {
				return err
			}
			jsonBytes += len(enc)
		}
		b.m.set("data_bytes_per_cell", float64(jsonBytes)/float64(len(first)), 0)
		if !b.cfg.traced {
			return nil
		}

		tracedMcps, _, all := summarize(traced)
		b.m.set("bench.trace_overhead_ratio", ratio(tracedMcps, mcps), len(traced))
		b.m.set("bench.job_latency_ms_p90", percentile(all, 90), len(all))
		b.m.set("bench.job_latency_ms_p99", percentile(all, 99), len(all))
		counts := b.reportCounts(first)
		b.m.set("sim.host_ns_per_core_cycle", ratio(1000, mcps), n)
		b.m.set("sim.host_ns_per_retired_inst", ratio(sum(plain[0].wall)*1e9, float64(counts.m.Retired)), 1)
		if err := b.differential(ctx, cores, design, window); err != nil {
			return err
		}
		return b.timedCalls(ctx, first)
	}
}

// storeCell is the store row of a verified result (what the service's
// admission path and dncbench -store-out both build).
func storeCell(c storedCell) resultstore.Cell {
	out := resultstore.Cell{
		Workload: c.spec.Workload, Design: c.spec.Design, Mode: c.spec.ModeString(),
		Cores: c.spec.Cores, Warm: c.spec.Warm, Measure: c.spec.Measure, Seed: c.spec.Seed,
	}
	out.SetResult(c.body)
	return out
}

// runSweep is the dncbench path: each round is one runner.Sweep over 72
// fresh cells at nproc jobs with a journal and the default fsync cadence.
func runSweep(b *bench) error {
	ctx := context.Background()
	sz := b.cfg.sizes
	b.buildPrograms(cellPresets)

	type sample struct {
		roundSample            // wall is runner.Sweep's, and the one job's latency
		cellMs       []float64 // per cell, as the runner timed it
		cells        []storedCell
		journalBytes int64
		retainedMB   float64 // traced rounds only
	}
	round := func(i int) (sample, error) {
		var s sample
		var cells []runner.Cell
		specs := map[string]workerproto.CellSpec{}
		for _, w := range cellPresets {
			for _, d := range sweepDesigns {
				for k := 0; k < sz.sweepSeeds; k++ {
					spec := cell(w, d, cellCores, sz.sweepWindow, b.simSeed(i*sz.sweepSeeds+k))
					specs[spec.Key()] = spec
					cells = append(cells, runner.Cell{ID: spec.Key(), Config: spec.RunConfig()})
				}
			}
		}
		journal := filepath.Join(b.cfg.tmp, fmt.Sprintf("sweep-%d.jsonl", i))
		opts := runner.Options{Jobs: runtime.NumCPU(), JournalPath: journal}
		rid := b.startSpan(0, "rounds", fmt.Sprintf("runner.Sweep round %d", i))
		var heapBefore uint64
		if rid != 0 {
			heapBefore = heapAfterGC()
			opts.OnResult = func(cr runner.CellResult) {
				end := time.Now()
				b.span(rid, "cells", "cell "+specs[cr.ID].Design, end.Add(-cr.Elapsed), end)
			}
		}
		t := time.Now()
		rep, err := runner.Sweep(ctx, cells, opts)
		s.wall = time.Since(t).Seconds()
		s.lat = []float64{s.wall * 1000}
		b.endSpan(rid)
		if err != nil {
			return s, err
		}
		digests := make(map[string]string, len(cells))
		for _, cr := range rep.Cells {
			var err error
			if cr.Status != runner.StatusOK {
				err = fmt.Errorf("cell %s: status %s: %v", cr.ID, cr.Status, cr.Err)
			} else {
				body := runner.NewResultJSON(cr.Result)
				if err = b.check(body); err == nil {
					s.verified++
					s.cellMs = append(s.cellMs, millis(cr.Elapsed))
					s.cells = append(s.cells, storedCell{specs[cr.ID], body})
					digests[cr.ID] = service.ResultDigest(body)
				}
			}
			b.op(err)
		}
		if rid != 0 {
			s.retainedMB = float64(heapAfterGC()-heapBefore) / (1 << 20) / float64(len(cells))
			runtime.KeepAlive(rep)
		}
		// The Report is dropped and collected. The heap stays mapped: handing
		// it back (debug.FreeOSMemory) makes every round fault 1.6 GB in
		// again, and what a page fault costs on the reference host changes by
		// a quarter from one minute to the next (README.md, noise control).
		rep = nil
		runtime.GC()

		// The journal must reload to the same results.
		again, err := runner.Sweep(ctx, cells, runner.Options{Jobs: 1, JournalPath: journal})
		if err == nil {
			for _, cr := range again.Cells {
				want, ok := digests[cr.ID]
				if !ok {
					continue // failed above, already counted
				}
				if cr.Status != runner.StatusResumed {
					err = fmt.Errorf("journal reload: cell %s: status %s, want resumed", cr.ID, cr.Status)
				} else if got := service.ResultDigest(runner.NewResultJSON(cr.Result)); got != want {
					err = fmt.Errorf("journal reload: cell %s: digest %s, want %s", cr.ID, got, want)
				}
			}
		}
		b.op(err)
		if fi, err := os.Stat(journal); err == nil {
			s.journalBytes = fi.Size()
		}
		if i > 0 {
			s.cells = nil // only the first round's simulated counts are reported
		}
		return s, os.Remove(journal)
	}
	plain, traced, err := measure(b, round)
	if err != nil {
		return err
	}

	rounds := func(rs []sample) []roundSample {
		out := make([]roundSample, len(rs))
		for i, r := range rs {
			out[i] = r.roundSample
		}
		return out
	}
	// A process's first sweep maps the heap and the second still grows it;
	// from the third on a round reuses what is mapped. Those two are the
	// warm-up: they run and are checked, and the medians leave them out.
	// Here a job is one sweep, so its latency restates the rate: secondary.
	steady := rounds(plain[b.warm:])
	rate := b.setRoundMetrics(steady, cellCores*float64(2*sz.sweepWindow))
	// dncbench runs one sweep per process: the first round is all it sees.
	first := plain[0]
	b.note("first round (fresh heap) ran at %.1f cells/s; the median round after %d warm-up rounds at %.1f",
		first.rate(), b.warm, rate)
	if len(first.cells) == 0 {
		return errFirstRound
	}
	b.m.set("data_bytes_per_cell", float64(first.journalBytes)/float64(len(first.cells)), 0)
	if !b.cfg.traced {
		return nil
	}

	b.m.set("runner.first_sweep_cells_per_s", first.rate(), 1)
	// The traced rounds are all warmed up, so the overhead is taken against
	// the reference rounds that are too, which is what rate is.
	b.m.set("bench.trace_overhead_ratio", ratio(setTracedRoundMetrics(b.m, rounds(traced)), rate), len(traced))
	b.m.set("runner.journal_bytes_per_cell", float64(first.journalBytes)/float64(len(first.cells)), 0)
	counts := b.reportCounts(first.cells)
	busyNs := sum(first.cellMs) * 1e6
	b.m.set("sim.host_ns_per_core_cycle", ratio(busyNs, float64(len(first.cellMs))*cellCores*float64(2*sz.sweepWindow)), len(first.cellMs))
	b.m.set("sim.host_ns_per_retired_inst", ratio(busyNs, float64(counts.m.Retired)), len(first.cellMs))
	if err := b.timedCalls(ctx, first.cells); err != nil {
		return err
	}
	var retained []float64
	for _, r := range traced {
		retained = append(retained, r.retainedMB)
	}
	b.m.set("runner.retained_mb_per_cell", median(retained), len(retained))
	return nil
}

// heapAfterGC is the live heap after a forced collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
