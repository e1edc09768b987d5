package difftest

import (
	"context"
	"fmt"
	"testing"

	wl "dnc/internal/cfg"
	"dnc/internal/isa"
	"dnc/internal/prefetch"
	"dnc/internal/sim"
)

// genWorkload derives a valid workload parameter set from quantized knobs.
// Quantization matters twice over: it keeps every generated set inside the
// generator's valid region (branch fractions summing below 1), and it bounds
// the number of distinct programs the sim-level cache can ever hold, so
// long fuzzing sessions don't grow memory without limit.
func genWorkload(genSeed, footSel, condSel, callSel, modeSel uint8) wl.Params {
	footprints := []int{64 << 10, 128 << 10, 256 << 10}
	mode := isa.Fixed
	if modeSel%2 == 1 {
		mode = isa.Variable
	}
	p := wl.Params{
		Name:           "fuzz",
		Mode:           mode,
		FootprintBytes: footprints[int(footSel)%len(footprints)],
		// CondFrac in {0.20, 0.25, …, 0.55}, CallFrac in {0.05, …, 0.30}:
		// with JumpFrac 0.08 the terminator fractions always sum below 1.
		CondFrac: 0.20 + 0.05*float64(condSel%8),
		JumpFrac: 0.08,
		CallFrac: 0.05 + 0.05*float64(callSel%6),
		GenSeed:  int64(genSeed%8) + 1,
	}
	p.Name = fmt.Sprintf("fuzz-%d-%d-%d-%d-%d",
		genSeed%8, int(footSel)%len(footprints), condSel%8, callSel%6, modeSel%2)
	return p
}

// checkOnce runs one design differentially over one generated workload and
// returns the report (nil error means the simulator itself ran).
func checkOnce(p wl.Params, designIdx int, seed int64, measure uint64) (*Report, error) {
	cat := prefetch.Catalog()
	entry := cat[designIdx%len(cat)]
	_, rep, err := Run(context.Background(), Options{
		RunConfig: sim.RunConfig{Workload: p, Seed: seed, NewDesign: entry.New,
			Cores: 1, WarmCycles: 8, MeasureCycles: measure},
		Strict: true,
	})
	return rep, err
}

// TestPropertyRandomWorkloads sweeps pseudo-random workload parameter sets
// through the differential harness, rotating through the design catalog.
// Any divergence is first shrunk (see shrink) so the failure message carries
// a minimal reproduction instead of the original random case.
func TestPropertyRandomWorkloads(t *testing.T) {
	cases := 24
	measure := uint64(1024)
	if testing.Short() {
		cases = 8
	}
	rng := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < cases; i++ {
		// SplitMix64 step: deterministic, seed-independent case generation.
		rng += 0x9E3779B97F4A7C15
		z := rng
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31

		p := genWorkload(uint8(z), uint8(z>>8), uint8(z>>16), uint8(z>>24), uint8(z>>32))
		designIdx := int(z>>40) % len(prefetch.Catalog())
		rep, err := checkOnce(p, designIdx, 1, measure)
		if err != nil {
			t.Fatalf("case %d (%s, design %d): %v", i, p.Name, designIdx, err)
		}
		if !rep.Ok() {
			small, smallMeasure := shrink(t, p, designIdx, 1, measure, nil)
			t.Fatalf("case %d diverged; minimal reproduction %+v (measure %d) design %d:\n%s",
				i, small, smallMeasure, designIdx, rep)
		}
	}
}

// shrink greedily minimizes a divergent case: it repeatedly tries the
// candidate reductions (shorter window, smaller footprint, defaulted branch
// mix) and keeps any that still diverge, returning the smallest workload
// that reproduces. wrap carries an injected fault through the shrink so the
// shrinker itself is testable.
func shrink(t *testing.T, p wl.Params, designIdx int, seed int64, measure uint64, wrap sim.StreamWrapper) (wl.Params, uint64) {
	t.Helper()
	diverges := func(q wl.Params, m uint64) bool {
		cat := prefetch.Catalog()
		entry := cat[designIdx%len(cat)]
		_, rep, err := Run(context.Background(), Options{
			RunConfig: sim.RunConfig{Workload: q, Seed: seed, NewDesign: entry.New,
				Cores: 1, WarmCycles: 8, MeasureCycles: m},
			Strict: true,
			Wrap:   wrap,
		})
		return err == nil && !rep.Ok()
	}
	for improved := true; improved; {
		improved = false
		if measure > 128 && diverges(p, measure/2) {
			measure /= 2
			improved = true
		}
		if p.FootprintBytes > 64<<10 {
			q := p
			q.FootprintBytes /= 2
			if diverges(q, measure) {
				p = q
				improved = true
			}
		}
		if p.CondFrac != 0 || p.CallFrac != 0 {
			q := p
			q.CondFrac, q.JumpFrac, q.CallFrac = 0, 0, 0 // generator defaults
			if diverges(q, measure) {
				p = q
				improved = true
			}
		}
	}
	t.Logf("shrunk to footprint=%dKB measure=%d params=%+v", p.FootprintBytes>>10, measure, p)
	return p, measure
}

// TestShrinkMinimizesInjectedFault exercises the shrinker on a known-bad
// case: with a stream corruption injected at step 100, shrinking must keep
// the divergence while reducing the window and footprint to their floors.
func TestShrinkMinimizesInjectedFault(t *testing.T) {
	wrap := injectOn(100, func(s *wl.Step) { s.Taken = !s.Taken })
	p := genWorkload(3, 2, 5, 3, 0) // 256 KB footprint, fixed mode
	small, measure := shrink(t, p, 0, 1, 2048, wrap)
	if small.FootprintBytes != 64<<10 {
		t.Errorf("shrinker left footprint at %d KB, want 64", small.FootprintBytes>>10)
	}
	if measure >= 2048 {
		t.Errorf("shrinker failed to reduce the window below %d cycles", measure)
	}
	// The shrunk case must still reproduce.
	cat := prefetch.Catalog()
	_, rep, err := Run(context.Background(), Options{
		RunConfig: sim.RunConfig{Workload: small, Seed: 1, NewDesign: cat[0].New,
			Cores: 1, WarmCycles: 8, MeasureCycles: measure},
		Strict: true, Wrap: wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("shrunk case no longer reproduces the injected divergence")
	}
}

// FuzzWorkloadDifftest is the fuzz-native entry point: the fuzzer explores
// quantized workload shapes and design choices, and any input whose run
// diverges from the oracle (or crashes the simulator) is a finding.
func FuzzWorkloadDifftest(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(2), uint8(1), uint8(0), uint8(0), uint8(1))
	f.Add(uint8(3), uint8(1), uint8(5), uint8(3), uint8(1), uint8(9), uint8(2))
	f.Add(uint8(7), uint8(2), uint8(7), uint8(5), uint8(0), uint8(16), uint8(3))
	f.Fuzz(func(t *testing.T, genSeed, footSel, condSel, callSel, modeSel, designSel, seedSel uint8) {
		p := genWorkload(genSeed, footSel, condSel, callSel, modeSel)
		rep, err := checkOnce(p, int(designSel), int64(seedSel%4)+1, 512)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !rep.Ok() {
			t.Fatalf("divergence on %s:\n%s", p.Name, rep)
		}
	})
}
