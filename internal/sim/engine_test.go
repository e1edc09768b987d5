package sim

import (
	"context"
	"fmt"
	"os"
	"testing"

	"dnc/internal/isa"
	"dnc/internal/prefetch"
	"dnc/internal/workloads"
)

// TestTickZeroAllocs is the hot-structure contract: once the machine reaches
// steady state, advancing the default 4-core configuration of every catalog
// design performs zero heap allocations per tick, on fixed- and
// variable-length code. Fast-forward is disabled so the test exercises the
// full fetch/retire/fill machinery, not the cheap stall path.
func TestTickZeroAllocs(t *testing.T) {
	for _, mode := range []isa.Mode{isa.Fixed, isa.Variable} {
		for _, e := range prefetch.Catalog() {
			name := e.Name
			if mode == isa.Variable {
				name += "/variable"
			}
			t.Run(name, func(t *testing.T) {
				rc := applyDefaults(RunConfig{
					Workload:  workloads.Params("Web-Zeus", mode),
					NewDesign: e.New,
				})
				m, err := buildMachine(rc, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer m.close()
				for _, c := range m.cores {
					c.SetFastForward(false)
				}
				for i := 0; i < 50_000; i++ {
					for _, c := range m.cores {
						c.Tick()
					}
				}
				allocs := testing.AllocsPerRun(10, func() {
					for i := 0; i < 1_000; i++ {
						for _, c := range m.cores {
							c.Tick()
						}
					}
				})
				if allocs != 0 {
					t.Fatalf("steady-state ticking allocated %.2f times per 4000 core-ticks; want 0", allocs)
				}
			})
		}
	}
}

// ffDesigns are the metamorphic coverage set: one design per Quiescent
// implementation shape — the Base default (baseline, no Tick override), the
// Proactive queue family, and the two FTQ-directed designs with their own
// tick machinery (boomerang stalls, shotgun's prefetch buffer).
func ffDesigns() map[string]func() prefetch.Design {
	return map[string]func() prefetch.Design{
		"baseline":  func() prefetch.Design { return prefetch.NewBaseline(2048) },
		"proactive": func() prefetch.Design { return prefetch.NewProactive(prefetch.DefaultProactiveConfig()) },
		"boomerang": func() prefetch.Design { return prefetch.NewBoomerang(prefetch.BoomerangConfig{}) },
		"shotgun":   func() prefetch.Design { return prefetch.NewShotgun(prefetch.ShotgunDesignConfig{}) },
	}
}

// TestFastForwardTransparent is the tentpole's metamorphic property: runs
// with the idle-cycle fast path on and off produce identical results —
// every metric counter — and byte-identical checkpoint files, across
// designs and seeds.
func TestFastForwardTransparent(t *testing.T) {
	for name, nd := range ffDesigns() {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				run := func(disable bool) (Result, []byte) {
					rc := checkpointConfig(t, nd)
					rc.Seed = seed
					rc.DisableFastForward = disable
					res, err := RunChecked(context.Background(), rc)
					if err != nil {
						t.Fatal(err)
					}
					ckpt, err := os.ReadFile(rc.CheckpointPath)
					if err != nil {
						t.Fatal(err)
					}
					return res, ckpt
				}
				fast, fastCkpt := run(false)
				ref, refCkpt := run(true)
				if got, want := fingerprint(t, fast), fingerprint(t, ref); got != want {
					t.Errorf("seed %d: fast-forward changed the result\nfast: %s\nref:  %s", seed, got, want)
				}
				if string(fastCkpt) != string(refCkpt) {
					t.Errorf("seed %d: fast-forward changed the checkpoint bytes (%d vs %d bytes)",
						seed, len(fastCkpt), len(refCkpt))
				}
			})
		}
	}
}

// TestFastForwardSkipsCycles guards against the fast path silently never
// engaging (every guard in computeIdleWake failing would make the
// transparency test vacuous): a baseline run must take at least one
// all-asleep machine jump, serial and sharded, and none under SchedTick.
func TestFastForwardSkipsCycles(t *testing.T) {
	for _, c := range sleepCases {
		t.Run(c.name, func(t *testing.T) {
			if _, jumps := traceSleeps(t, c.set, c.shards); (jumps > 0) != c.sleeps {
				t.Errorf("%d all-asleep jumps in 20K cycles, want jumping %v", jumps, c.sleeps)
			}
		})
	}
}
