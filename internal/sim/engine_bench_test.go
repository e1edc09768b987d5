package sim

import (
	"fmt"
	"path/filepath"
	"testing"

	"dnc/internal/isa"
	"dnc/internal/prefetch"
	"dnc/internal/workloads"
)

// Engine regression benchmarks: the default 4-core paper configuration
// (Web-Zeus, 200K warm + 200K measure) under the no-prefetch baseline and
// the paper's headline SN4L+Dis+BTB design. scripts/benchdiff.sh compares
// their ns/op against the committed BENCH_engine.json and fails CI on
// regressions. Run with:
//
//	go test ./internal/sim -bench BenchmarkEngine -benchtime 3x -count 3
func benchEngine(b *testing.B, designName string, cores int) {
	benchEngineShards(b, designName, cores, 0)
}

// benchEngineShards is benchEngine at the given RunConfig.IntraJobs.
func benchEngineShards(b *testing.B, designName string, cores, intraJobs int) {
	b.Helper()
	rc := engineConfig(b, designName, cores)
	rc.IntraJobs = intraJobs
	Program(rc.Workload) // generation cost is one-time; keep it out of the loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Run(rc)
		if r.M.Retired == 0 {
			b.Fatal("no instructions retired")
		}
	}
}

// engineConfig is the Web-Zeus run of one catalog design at the default
// window lengths.
func engineConfig(tb testing.TB, designName string, cores int) RunConfig {
	tb.Helper()
	entry, ok := prefetch.FindDesign(designName)
	if !ok {
		tb.Fatalf("catalog entry %q missing", designName)
	}
	return RunConfig{
		Workload:  workloads.Params("Web-Zeus", isa.Fixed),
		NewDesign: entry.New,
		Cores:     cores,
		Seed:      1,
	}
}

func BenchmarkEngineBaseline(b *testing.B) { benchEngine(b, "baseline", 4) }

func BenchmarkEngineSN4LDisBTB(b *testing.B) { benchEngine(b, "SN4L+Dis+BTB", 4) }

// The 16-core entries cover the paper's full-scale configuration, where
// idle fast-forward stops paying (someone is almost always busy) and the
// engine's per-cycle cost dominates. At the default IntraJobs they shard
// across the idle CPUs; the Serial twin keeps the one-goroutine cost
// tracked.
func BenchmarkEngine16CoreBaseline(b *testing.B) { benchEngine(b, "baseline", 16) }

func BenchmarkEngine16CoreSN4LDisBTB(b *testing.B) { benchEngine(b, "SN4L+Dis+BTB", 16) }

func BenchmarkEngine16CoreSN4LDisBTBSerial(b *testing.B) {
	benchEngineShards(b, "SN4L+Dis+BTB", 16, 1)
}

// BenchmarkRunCheckpointed is what `dncsim -checkpoint-path` pays at its
// default cadence: the engine benchmarks' runs with a snapshot (audit,
// encode, fsynced atomic write) every 65536 cycles — six per run. B/op is
// mostly the snapshot buffer.
func BenchmarkRunCheckpointed(b *testing.B) {
	for _, c := range []struct {
		design string
		cores  int
	}{{"baseline", 4}, {"SN4L+Dis+BTB", 16}} {
		b.Run(fmt.Sprintf("%s/cores=%d", c.design, c.cores), func(b *testing.B) {
			rc := engineConfig(b, c.design, c.cores)
			rc.CheckpointEvery = 65536
			rc.CheckpointPath = filepath.Join(b.TempDir(), "run.ckpt")
			Run(rc) // program generation is one-time
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if r := Run(rc); r.M.Retired == 0 {
					b.Fatal("no instructions retired")
				}
			}
		})
	}
}

// fixedCostConfig is a run too short to simulate anything to speak of: what
// it costs is what every run costs before its first cycle and after its last
// — machine assembly, the LLC's reset and preload, the drain audit, the
// result.
func fixedCostConfig(tb testing.TB) RunConfig {
	rc := engineConfig(tb, "baseline", 2)
	rc.WarmCycles, rc.MeasureCycles = 64, 64
	return rc
}

// BenchmarkRunFixedCost gates the per-run fixed cost that short sweep cells
// (2 cores, 20K+20K) are made of.
func BenchmarkRunFixedCost(b *testing.B) {
	rc := fixedCostConfig(b)
	Run(rc) // program generation is one-time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := Run(rc); r.M.Cycles == 0 {
			b.Fatal("run did not advance")
		}
	}
}

// BenchmarkSchedModes is the engine comparison behind the EXPERIMENTS.md
// wall-clock tables — the tick reference vs the serial loop vs 2 and 4
// shards, per design, at 1/4/8/16 cores, seed 2 — and the crossover that sets
// coresPerShard. Deliberately outside the BenchmarkEngine prefix so the
// benchdiff gate and CI smoke don't run the full matrix; invoke it (or a
// -bench filtered slice of it) directly:
//
//	go test ./internal/sim -run '^$' -bench BenchmarkSchedModes -benchtime 2x -count 2
func BenchmarkSchedModes(b *testing.B) {
	modes := []struct {
		name  string
		sched SchedMode
		intra int
	}{
		{"tick", SchedTick, 1},
		{"serial", SchedWheel, 1},
		{"shards2", SchedWheel, 2},
		{"shards4", SchedWheel, 4},
	}
	for _, designName := range []string{"baseline", "SN4L+Dis+BTB"} {
		for _, cores := range []int{1, 4, 8, 16} {
			for _, m := range modes {
				if m.intra > 1 && cores < m.intra {
					continue // clamping would just re-measure the serial loop
				}
				b.Run(fmt.Sprintf("%s/%s/cores=%d", designName, m.name, cores), func(b *testing.B) {
					rc := engineConfig(b, designName, cores)
					rc.Seed, rc.Sched, rc.IntraJobs = 2, m.sched, m.intra
					Program(rc.Workload)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						r := Run(rc)
						if r.M.Retired == 0 {
							b.Fatal("no instructions retired")
						}
					}
				})
			}
		}
	}
}
