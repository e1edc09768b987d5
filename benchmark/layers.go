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
	"dnc/internal/core"
	"dnc/internal/isa"
	"dnc/internal/llc"
	"dnc/internal/obs"
	"dnc/internal/resultstore"
	"dnc/internal/service"
	"dnc/internal/sim"
	"dnc/internal/sim/runner"
	wl "dnc/internal/workloads"
)

// simCounts sums the simulated statistics of a set of results. They are
// exact for a seed: a change meant only to speed the simulator up must
// leave every one of them identical.
type simCounts struct {
	m                         core.Metrics
	llc                       llc.Stats
	flits, nocQueued, dramQed uint64
}

func (s *simCounts) add(r *resultBody) {
	s.m.Add(&r.M)
	s.llc.InstAccesses += r.LLCStats.InstAccesses
	s.llc.InstHits += r.LLCStats.InstHits
	s.flits += r.NoCFlits
	s.nocQueued += r.NoCQueued
	s.dramQed += r.DRAMQueued
}

// reportCounts sets the simulated counts of a set of verified cells.
func (b *bench) reportCounts(cells []storedCell) simCounts {
	var s simCounts
	for _, c := range cells {
		s.add(c.body)
	}
	s.report(b.m)
	return s
}

func (s *simCounts) report(m metricSet) {
	for name, v := range map[string]uint64{
		"core.sim_cycles":          s.m.Cycles,
		"core.retired_insts":       s.m.Retired,
		"core.stall_icache_cycles": s.m.StallICache,
		"core.stall_btb_cycles":    s.m.StallBTB,
		"core.ext_requests":        s.m.ExtRequests,
		"cache.l1i_lookups":        s.m.CacheLookups,
		"cache.l1i_demand_misses":  s.m.DemandMisses,
		"prefetch.issued":          s.m.PrefetchesIssued,
		"prefetch.useful":          s.m.UsefulPrefetches,
		"prefetch.useless_evicts":  s.m.UselessEvicts,
		"llc.inst_accesses":        s.llc.InstAccesses,
		"llc.inst_hits":            s.llc.InstHits,
		"noc.flits":                s.flits,
		"noc.queued_cycles":        s.nocQueued,
		"memory.queued_cycles":     s.dramQed,
	} {
		m.set(name, float64(v), 0)
	}
	m.set("core.sim_ipc", s.m.IPC(), 0)
	m.set("prefetch.useful_ratio", ratio(float64(s.m.UsefulPrefetches), float64(s.m.PrefetchesIssued)), 0)
}

// differential times each preset once (one seed no timed round uses) under
// each engine option reachable through public RunConfig fields, between two
// runs under the defaults whose faster one is the reference, so that the
// host's drift from one minute to the next cancels within a preset. Each
// ratio predicts sim_mcps on this workload if that path became the
// default. The engines are bit-exact by contract, so equal simulated
// metrics are an output check.
func (b *bench) differential(ctx context.Context, cores int, design string, window uint64) error {
	seed := b.simSeed(seedStride - 1)
	other := "baseline"
	if design == other {
		other = dncDesign
	}
	ckpt := filepath.Join(b.cfg.tmp, "differential.ckpt")
	defer os.Remove(ckpt)
	variants := []struct {
		metric string
		design string
		mod    func(*sim.RunConfig)
	}{
		{"sim.tick_over_wheel_ratio", design, func(rc *sim.RunConfig) { rc.Sched = sim.SchedTick }},
		{"sim.noff_over_ff_ratio", design, func(rc *sim.RunConfig) { rc.DisableFastForward = true }},
		{"sim.intra2_over_serial_ratio", design, func(rc *sim.RunConfig) { rc.IntraJobs = 2 }},
		{"obs.on_over_off_ratio", design, func(rc *sim.RunConfig) { rc.Obs = &obs.Config{} }},
		{"checkpoint.on_over_off_ratio", design, func(rc *sim.RunConfig) {
			rc.CheckpointEvery, rc.CheckpointPath = runner.DefaultCheckpointEvery, ckpt
		}},
		{"prefetch.design_over_base_ratio", other, func(*sim.RunConfig) {}},
	}
	runOne := func(preset, design string, mod func(*sim.RunConfig)) (float64, *resultBody, error) {
		rc := cell(preset, design, cores, window, seed).RunConfig()
		mod(&rc)
		runtime.GC()
		t := time.Now()
		res, err := sim.RunChecked(ctx, rc)
		wall := time.Since(t).Seconds()
		if err != nil {
			return 0, nil, err
		}
		return wall, runner.NewResultJSON(res), nil
	}
	defaults := func(*sim.RunConfig) {}
	var refWall float64
	wall := make([]float64, len(variants))
	failed := make([]error, len(variants))
	var dnc, base simCounts
	for _, p := range runPresets {
		before, ref, err := runOne(p, design, defaults)
		if err != nil {
			return fmt.Errorf("differential reference run: %w", err)
		}
		for i, v := range variants {
			w, got, err := runOne(p, v.design, v.mod)
			if err == nil && v.design == design && got.M != ref.M {
				err = fmt.Errorf("%s: %s simulated different metrics than the default engine", v.metric, p)
			}
			if err != nil {
				failed[i] = err
				continue
			}
			wall[i] += w
			if v.design != design { // the other design's run: simulated IPC of each side
				d, bs := ref, got
				if design == "baseline" {
					d, bs = got, ref
				}
				dnc.add(d)
				base.add(bs)
			}
		}
		after, _, err := runOne(p, design, defaults)
		if err != nil {
			return fmt.Errorf("differential reference run: %w", err)
		}
		refWall += min(before, after)
	}
	for i, v := range variants {
		b.op(failed[i])
		if failed[i] != nil {
			continue
		}
		r := ratio(wall[i], refWall)
		if v.design != design && design == dncDesign {
			r = ratio(refWall, wall[i]) // always the design's time over the baseline's
		}
		b.m.set(v.metric, r, len(runPresets))
	}
	if design == dncDesign && base.m.Cycles > 0 {
		speedup := ratio(dnc.m.IPC(), base.m.IPC())
		b.m.set("core.sim_speedup_dnc_over_base", speedup, len(runPresets))
		b.note("simulated speedup of %s over baseline on these presets: %.2fx (paper: 1.19x over its baseline; EXPERIMENTS.md: 1.39x; the model is shape-validated, not magnitude-validated)",
			dncDesign, speedup)
	}
	return nil
}

// timedCalls times calls into single layers with inputs the workload
// produced: cells are its first round's verified results.
func (b *bench) timedCalls(ctx context.Context, cells []storedCell) error {
	rep := cells[0]

	prog := sim.Program(wl.Params(rep.spec.Workload, isa.Fixed))
	steps := b.cfg.sizes.walkerSteps
	t := time.Now()
	w := cfg.NewWalker(prog, rep.spec.Seed)
	var st cfg.Step
	for i := 0; i < steps; i++ {
		w.Next(&st)
	}
	b.m.set("cfg.walker_ns_per_step", float64(time.Since(t).Nanoseconds())/float64(steps), steps)

	// A run of 64+64 cycles is all fixed cost: building the machine. (A
	// 1-cycle measurement window trips the NoC auditor: flits of warm-up
	// packets are still on links whose packet count was just reset.)
	tiny := rep.spec
	tiny.Warm, tiny.Measure = 64, 64
	const tinyRuns = 5
	var fixedMs, allocMB, allocs []float64
	held := make([]sim.Result, 0, tinyRuns)
	before := heapAfterGC()
	for i := 0; i < tinyRuns; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t := time.Now()
		res, err := sim.RunChecked(ctx, tiny.RunConfig())
		fixedMs = append(fixedMs, millis(time.Since(t)))
		runtime.ReadMemStats(&m1)
		if err != nil {
			return fmt.Errorf("64+64-cycle run: %w", err)
		}
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		held = append(held, res)
	}
	b.m.set("sim.fixed_ms_per_run", median(fixedMs), tinyRuns)
	b.m.set("sim.alloc_mb_per_run", median(allocMB), tinyRuns)
	b.m.set("sim.allocs_per_run", median(allocs), tinyRuns)
	// What a caller that keeps its Results (runner.Report does) pins per
	// cell; runSweep overrides this with the figure from a real Report.
	b.m.set("runner.retained_mb_per_cell", float64(heapAfterGC()-before)/(1<<20)/tinyRuns, tinyRuns)
	runtime.KeepAlive(held)

	const reps = 200
	var enc []byte
	jsonUs := timeEach(reps, func() { enc, _ = json.Marshal(rep.body) }) // a result always encodes
	b.m.set("runner.result_json_us", jsonUs, reps)
	b.m.set("runner.result_json_bytes", float64(len(enc)), 0)
	b.m.set("workerproto.cell_digest_us", timeEach(reps, func() { rep.spec.Digest() }), reps)
	b.m.set("service.result_digest_us", timeEach(reps, func() { service.ResultDigest(rep.body) }), reps)

	// The service's admission path: one append and one fsynced flush per cell.
	path := filepath.Join(b.cfg.tmp, "timed.dncr")
	defer os.Remove(path)
	sw, err := resultstore.OpenWriter(path)
	if err != nil {
		return err
	}
	t = time.Now()
	for _, c := range cells {
		if _, err := sw.Append(storeCell(c)); err == nil {
			err = sw.Flush()
		}
		if err != nil {
			sw.Close()
			return err
		}
	}
	perCell := micros(time.Since(t)) / float64(len(cells))
	if err := sw.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	b.m.set("resultstore.append_flush_us_per_cell", perCell, len(cells))
	b.m.set("resultstore.bytes_per_cell", float64(fi.Size())/float64(len(cells)), 0)
	const scans = 20
	scanUs := timeEach(scans, func() {
		r, err := resultstore.OpenReader(path)
		if err == nil {
			_, err = resultstore.Scan(r, resultstore.Query{Metric: resultstore.MetricIPC})
		}
		if err != nil {
			b.op(err)
		}
	})
	b.m.set("resultstore.scan_ms", scanUs/1000, scans)
	return nil
}

// timeEach returns the median time of n calls of f, in microseconds.
func timeEach(n int, f func()) float64 {
	times := make([]float64, n)
	for i := range times {
		t := time.Now()
		f()
		times[i] = micros(time.Since(t))
	}
	return median(times)
}
