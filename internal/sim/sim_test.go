package sim

import (
	"testing"

	wl "dnc/internal/cfg"
	"dnc/internal/core"
	"dnc/internal/isa"
	"dnc/internal/prefetch"
)

// smallWorkload is a fast test workload.
func smallWorkload() wl.Params {
	return wl.Params{
		Name:             "sim-test",
		FootprintBytes:   1 << 20,
		LoadFrac:         0.2,
		StoreFrac:        0.08,
		RareBlockFrac:    0.08,
		BackwardFrac:     0.1,
		CondFrac:         0.42,
		JumpFrac:         0.07,
		CallFrac:         0.22,
		IndirectCallFrac: 0.06,
		GenSeed:          9,
	}
}

func quickRun(t *testing.T, nd func() prefetch.Design) Result {
	t.Helper()
	return Run(RunConfig{
		Workload:      smallWorkload(),
		NewDesign:     nd,
		Cores:         2,
		WarmCycles:    30_000,
		MeasureCycles: 30_000,
		Seed:          1,
	})
}

func TestBaselineRunsAndRetires(t *testing.T) {
	r := quickRun(t, func() prefetch.Design { return prefetch.NewBaseline(2048) })
	if r.M.Retired == 0 {
		t.Fatal("no instructions retired")
	}
	ipc := r.M.IPC()
	if ipc <= 0.05 || ipc > 3.0 {
		t.Fatalf("baseline IPC = %.3f, implausible", ipc)
	}
	if r.M.DemandMisses == 0 {
		t.Fatal("a 1MB footprint must miss in a 32KB L1i")
	}
	if r.M.FrontendStalls() == 0 {
		t.Fatal("no frontend stalls recorded")
	}
	if r.M.SeqMisses+r.M.DiscMisses != r.M.DemandMisses {
		t.Fatalf("miss classification does not add up: %d+%d != %d",
			r.M.SeqMisses, r.M.DiscMisses, r.M.DemandMisses)
	}
}

func TestDeterminism(t *testing.T) {
	a := quickRun(t, func() prefetch.Design { return prefetch.NewBaseline(2048) })
	b := quickRun(t, func() prefetch.Design { return prefetch.NewBaseline(2048) })
	if a.M != b.M {
		t.Fatalf("identical runs diverged:\n%+v\n%+v", a.M, b.M)
	}
}

func TestNLImprovesOverBaseline(t *testing.T) {
	base := quickRun(t, func() prefetch.Design { return prefetch.NewBaseline(2048) })
	nl := quickRun(t, func() prefetch.Design { return prefetch.NewNXL(1, 2048) })
	if nl.M.PrefetchesIssued == 0 {
		t.Fatal("NL issued no prefetches")
	}
	sp := Speedup(nl, base)
	if sp < 1.0 {
		t.Errorf("NL speedup = %.3f, expected >= 1.0", sp)
	}
	cov := MissCoverage(nl, base)
	if cov <= 0.05 {
		t.Errorf("NL miss coverage = %.3f, expected materially positive", cov)
	}
}

func TestSN4LDisBTBImprovesOverNL(t *testing.T) {
	base := quickRun(t, func() prefetch.Design { return prefetch.NewBaseline(2048) })
	nl := quickRun(t, func() prefetch.Design { return prefetch.NewNXL(1, 2048) })
	full := quickRun(t, func() prefetch.Design {
		cfg := prefetch.DefaultProactiveConfig()
		cfg.WithBTBPrefetch = true
		return prefetch.NewProactive(cfg)
	})
	if full.M.PrefetchesIssued == 0 {
		t.Fatal("proactive design issued no prefetches")
	}
	spNL := Speedup(nl, base)
	spFull := Speedup(full, base)
	if spFull <= spNL {
		t.Errorf("SN4L+Dis+BTB speedup %.3f <= NL %.3f", spFull, spNL)
	}
	if FSCR(full, base) <= FSCR(nl, base) {
		t.Errorf("SN4L+Dis+BTB FSCR %.3f <= NL %.3f", FSCR(full, base), FSCR(nl, base))
	}
}

func TestBTBDirectedDesignsRun(t *testing.T) {
	base := quickRun(t, func() prefetch.Design { return prefetch.NewBaseline(2048) })
	boom := quickRun(t, func() prefetch.Design {
		return prefetch.NewBoomerang(prefetch.DefaultBoomerangConfig())
	})
	if boom.M.Retired == 0 {
		t.Fatal("boomerang run retired nothing")
	}
	if boom.M.StallFTQ == 0 {
		t.Error("boomerang never stalled on FTQ — gating inactive?")
	}
	if Speedup(boom, base) < 0.7 {
		t.Errorf("boomerang speedup %.3f collapsed", Speedup(boom, base))
	}

	shotCfg := prefetch.DefaultShotgunDesignConfig()
	shot := Run(RunConfig{
		Workload:      smallWorkload(),
		NewDesign:     func() prefetch.Design { return prefetch.NewShotgun(shotCfg) },
		Cores:         2,
		WarmCycles:    30_000,
		MeasureCycles: 30_000,
		Seed:          1,
	})
	if shot.M.Retired == 0 {
		t.Fatal("shotgun run retired nothing")
	}
	if shot.Probes == nil || shot.Probes.UBTBLookups == 0 {
		t.Error("shotgun U-BTB never consulted")
	}
}

func TestConfluenceRuns(t *testing.T) {
	base := quickRun(t, func() prefetch.Design { return prefetch.NewBaseline(2048) })
	conf := quickRun(t, func() prefetch.Design {
		return prefetch.NewConfluence(prefetch.DefaultConfluenceConfig())
	})
	if conf.M.PrefetchesIssued == 0 {
		t.Fatal("confluence issued no prefetches")
	}
	if Speedup(conf, base) < 1.0 {
		t.Errorf("confluence speedup %.3f < 1", Speedup(conf, base))
	}
}

func TestPerfectL1i(t *testing.T) {
	base := quickRun(t, func() prefetch.Design { return prefetch.NewBaseline(2048) })
	perfect := Run(RunConfig{
		Workload:      smallWorkload(),
		NewDesign:     func() prefetch.Design { return prefetch.NewBaseline(2048) },
		Cores:         2,
		WarmCycles:    30_000,
		MeasureCycles: 30_000,
		Seed:          1,
		Core: func() (c core.Config) {
			c = core.DefaultConfig()
			c.PerfectL1i = true
			return
		}(),
	})
	if perfect.M.DemandMisses != 0 {
		t.Fatalf("perfect L1i recorded %d misses", perfect.M.DemandMisses)
	}
	if Speedup(perfect, base) <= 1.0 {
		t.Errorf("perfect L1i speedup %.3f <= 1", Speedup(perfect, base))
	}
}

func TestVariableModeWithDVLLC(t *testing.T) {
	p := smallWorkload()
	p.Mode = isa.Variable
	r := Run(RunConfig{
		Workload:      p,
		NewDesign:     func() prefetch.Design { return prefetch.NewBaseline(2048) },
		Cores:         2,
		WarmCycles:    30_000,
		MeasureCycles: 30_000,
		Seed:          1,
	})
	if r.M.Retired == 0 {
		t.Fatal("variable-mode run retired nothing")
	}
	if r.LLCStats.BFStores == 0 {
		t.Error("no branch footprints stored in DV-LLC")
	}
}

func TestProgramCache(t *testing.T) {
	a := Program(smallWorkload())
	b := Program(smallWorkload())
	if a != b {
		t.Fatal("program cache returned distinct instances")
	}
}

// TestProgramCacheKeysEveryParam is the regression test for the under-keyed
// program cache: two parameter sets differing only in a branch-mix knob (not
// in Name/Mode/Footprint/GenSeed) must generate distinct programs, not share
// a cache entry. The stale-entry bug surfaced as phantom divergences in the
// differential fuzzing harness, which varies exactly these knobs.
func TestProgramCacheKeysEveryParam(t *testing.T) {
	base := smallWorkload()
	tweaked := base
	tweaked.CondFrac = base.CondFrac + 0.05
	a, b := Program(base), Program(tweaked)
	if a == b {
		t.Fatal("cache served the same program for distinct branch mixes")
	}
	// And the tweak must actually change the generated code, proving the
	// distinct entries are not just duplicate instances.
	count := func(p *wl.Program) (cond int) {
		for i := range p.Blocks {
			if term, ok := p.Terminator(int32(i)); ok && term.Kind == isa.KindCondBranch {
				cond++
			}
		}
		return cond
	}
	if count(a) == count(b) {
		t.Fatal("distinct branch mixes generated identical programs")
	}
}
