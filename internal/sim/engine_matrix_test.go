package sim

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dnc/internal/core"
)

// engineVariants is the engine coverage matrix: the tick reference (every
// core ticks every cycle), the serial loop with its sleep table, and the
// loop with intra-run sharding forced (posted requests replayed every
// lookahead epoch). Every variant must be bit-exact with every other.
func engineVariants() []struct {
	name string
	set  func(*RunConfig)
} {
	return []struct {
		name string
		set  func(*RunConfig)
	}{
		{"tick", func(rc *RunConfig) { rc.Sched = SchedTick }},
		{"serial", func(rc *RunConfig) { rc.IntraJobs = 1 }},
		{"sharded", func(rc *RunConfig) { rc.IntraJobs = 4 }},
	}
}

// TestEngineMatrixBitExact is the tentpole's equivalence wall: across design
// shapes and seeds, the tick reference, the serial loop, and the sharded
// loop produce identical results — every metric counter — and
// byte-identical checkpoint files. Checkpoint bytes are the strongest
// available observation: they serialize the entire machine, so any engine
// divergence in any component state shows up.
func TestEngineMatrixBitExact(t *testing.T) {
	for name, nd := range ffDesigns() {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				var refPrint, refCkpt string
				for _, v := range engineVariants() {
					rc := checkpointConfig(t, nd)
					rc.Seed = seed
					if name == "shotgun" {
						rc.Core = core.DefaultConfig()
						rc.Core.PrefetchBufferEntries = 64
					}
					v.set(&rc)
					res, err := RunChecked(context.Background(), rc)
					if err != nil {
						t.Fatalf("%s: %v", v.name, err)
					}
					ckpt, err := os.ReadFile(rc.CheckpointPath)
					if err != nil {
						t.Fatalf("%s: %v", v.name, err)
					}
					res.Engine = "" // provenance differs by construction
					print := fingerprint(t, res)
					if v.name == "tick" {
						refPrint, refCkpt = print, string(ckpt)
						continue
					}
					if print != refPrint {
						t.Errorf("%s result differs from tick reference\n%s: %s\ntick: %s",
							v.name, v.name, print, refPrint)
					}
					if string(ckpt) != refCkpt {
						t.Errorf("%s checkpoint bytes differ from tick reference (%d vs %d bytes)",
							v.name, len(ckpt), len(refCkpt))
					}
				}
			})
		}
	}
}

// TestEngineMatrixGOMAXPROCS pins the sharded engine's scheduling
// independence: the same parallel run under GOMAXPROCS=1 (shards fully
// serialized, so every join has to yield to make progress) and the test's
// native GOMAXPROCS produces identical results. Together with the
// race-enabled CI job this is the determinism half of the parallel-engine
// contract; the matrix test above is the correctness half.
func TestEngineMatrixGOMAXPROCS(t *testing.T) {
	rc := checkedConfig()
	rc.Cores = 8
	rc.WarmCycles = 6_000
	rc.MeasureCycles = 12_000
	rc.IntraJobs = 4

	run := func() string {
		res, err := RunChecked(context.Background(), rc)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(t, res)
	}
	native := run()
	old := runtime.GOMAXPROCS(1)
	serialized := run()
	runtime.GOMAXPROCS(old)
	if native != serialized {
		t.Fatalf("sharded run depends on GOMAXPROCS:\nnative:     %s\nserialized: %s",
			native, serialized)
	}
}

// TestEngineZeroAllocs extends the hot-structure contract to the engine
// loops, serial and sharded: steady-state advancement — sleeping and waking,
// all-asleep jumps, posting, epoch handoffs and replay included — performs
// zero heap allocations, because the sleep table, outboxes and shard workers
// are reused from cycle to cycle and epoch to epoch. The 16-core
// SN4L+Dis+BTB configuration is the paper's full-scale machine, where the
// engine loop is hottest.
func TestEngineZeroAllocs(t *testing.T) {
	for _, jobs := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", jobs), func(t *testing.T) {
			rc := applyDefaults(engineConfig(t, "SN4L+Dis+BTB", 16))
			rc.IntraJobs = jobs
			m, err := buildMachine(rc, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer m.close()
			if err := m.runPhase(nil, 50_000); err != nil {
				t.Fatal(err)
			}
			if m.eng.shards != jobs {
				t.Fatalf("ran on %d shards, want %d", m.eng.shards, jobs)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := m.runPhase(nil, m.done+1_000); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state advancement allocated %.2f times per 1000 machine cycles; want 0", allocs)
			}
		})
	}
}

// sleepCases are the loops the anti-vacuity checks below cover: the serial
// and the sharded loop must skip work, and SchedTick must not, so the
// matrix's tick row is not the default path under another name.
var sleepCases = []struct {
	name   string
	set    func(*RunConfig)
	shards int
	sleeps bool
}{
	{"serial", func(*RunConfig) {}, 1, true},
	{"sharded", func(rc *RunConfig) { rc.IntraJobs = 2 }, 2, true},
	{"tick", func(rc *RunConfig) { rc.Sched = SchedTick }, 1, false},
}

// traceSleeps runs 20K cycles of a 2-core baseline run one cycle per
// segment, so the sleep table is seen at every cycle, and reports whether
// some core ever slept and how many all-asleep machine jumps were taken (a
// segment that starts with every core asleep, sleepLen > 0, is one jump).
func traceSleeps(t *testing.T, set func(*RunConfig), shards int) (slept bool, jumps int) {
	t.Helper()
	rc := checkedConfig()
	set(&rc)
	m, err := buildMachine(applyDefaults(rc), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	for m.done < 20_000 {
		if m.eng.sleepLen(m.watch.cycle) > 0 {
			jumps++
		}
		if err := m.runPhase(nil, m.done+1); err != nil {
			t.Fatal(err)
		}
		slept = slept || slices.Contains(m.eng.asleep, true)
	}
	if m.eng.shards != shards {
		t.Fatalf("ran on %d shards, want %d", m.eng.shards, shards)
	}
	return slept, jumps
}

// TestWheelEngineSleeps is the anti-vacuity check of the engine matrix (a
// matrix of loops that never skip work would compare one path with itself):
// under the default wheel mode, serial and sharded, some core must actually
// sleep during a 2-core baseline run, and under SchedTick none may.
func TestWheelEngineSleeps(t *testing.T) {
	for _, c := range sleepCases {
		t.Run(c.name, func(t *testing.T) {
			if slept, _ := traceSleeps(t, c.set, c.shards); slept != c.sleeps {
				t.Errorf("a core slept: %v, want %v", slept, c.sleeps)
			}
		})
	}
}

// TestParallelRequiresWheel pins the validation contract: sharding the tick
// reference is rejected rather than silently serialized.
func TestParallelRequiresWheel(t *testing.T) {
	rc := checkedConfig()
	rc.Sched = SchedTick
	rc.IntraJobs = 2
	if err := rc.Validate(); err == nil {
		t.Fatal("IntraJobs > 1 under SchedTick accepted")
	}
	rc.IntraJobs = -1
	if err := rc.Validate(); err == nil {
		t.Fatal("negative IntraJobs accepted")
	}
}

// TestEngineStamp checks Result.Engine provenance for each variant: the
// stamp names the loop only, and the shard count (which under IntraJobs 0
// depends on the host) lives in Result.Shards, outside the fingerprint.
func TestEngineStamp(t *testing.T) {
	for _, v := range engineVariants() {
		rc := checkedConfig()
		rc.Cores = 4
		rc.WarmCycles = 2_000
		rc.MeasureCycles = 2_000
		v.set(&rc)
		res, err := RunChecked(context.Background(), rc)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		want := map[string]struct {
			engine string
			shards int
		}{
			"tick": {"tick", 1}, "serial": {"wheel", 1}, "sharded": {"wheel", 4},
		}[v.name]
		if res.Engine != want.engine || res.Shards != want.shards {
			t.Errorf("%s: Result.Engine = %q on %d shards, want %q on %d",
				v.name, res.Engine, res.Shards, want.engine, want.shards)
		}
		if print := fingerprint(t, res); strings.Contains(print, "hards") {
			t.Errorf("%s: the shard count leaked into the fingerprint: %s", v.name, print)
		}
	}
}
