package core

import (
	"testing"

	wl "dnc/internal/cfg"
	"dnc/internal/isa"
	"dnc/internal/llc"
	"dnc/internal/prefetch"
)

// Tests of the prefetch.Env capabilities the core exposes to designs.

func envCore(t *testing.T, cf Config) (*Core, *Uncore) {
	t.Helper()
	return newTestCore(t, cf, prefetch.NewBaseline(2048))
}

func TestEnvLookupCounting(t *testing.T) {
	c, _ := envCore(t, DefaultConfig())
	before := c.M.CacheLookups
	c.L1iContains(12345)
	c.L1iContains(12345)
	if c.M.CacheLookups != before+2 {
		t.Fatalf("lookups not counted: %d -> %d", before, c.M.CacheLookups)
	}
	// L1iLine is the metadata port, not a tag probe: not counted.
	before = c.M.CacheLookups
	c.L1iLine(12345)
	if c.M.CacheLookups != before {
		t.Fatal("L1iLine counted as a lookup")
	}
}

func TestEnvIssuePrefetchRules(t *testing.T) {
	c, _ := envCore(t, DefaultConfig())
	prog := wl.Generate(testWorkload())
	b := isa.BlockOf(prog.Image.Base)

	if !c.IssuePrefetch(b) {
		t.Fatal("first issue refused")
	}
	if c.IssuePrefetch(b) {
		t.Fatal("duplicate in-flight issue accepted")
	}
	if !c.InFlight(b) {
		t.Fatal("issued block not in flight")
	}
	// Out-of-image blocks are refused.
	if c.IssuePrefetch(isa.BlockOf(prog.Image.End()) + 1000) {
		t.Fatal("out-of-image prefetch accepted")
	}
	if c.M.PrefetchesIssued != 1 {
		t.Fatalf("issued = %d", c.M.PrefetchesIssued)
	}
}

func TestEnvIssuePrefetchPerfectL1i(t *testing.T) {
	cf := DefaultConfig()
	cf.PerfectL1i = true
	c, _ := envCore(t, cf)
	if c.IssuePrefetch(1) {
		t.Fatal("perfect L1i accepted a prefetch")
	}
}

func TestEnvPredecodeFixed(t *testing.T) {
	c, _ := envCore(t, DefaultConfig())
	prog := wl.Generate(testWorkload())
	// Find a block with at least one branch.
	first := isa.BlockOf(prog.Image.Base)
	for b := first; b < first+200; b++ {
		if brs := c.Predecode(b); len(brs) > 0 {
			// Every reported branch must decode as a branch at its offset.
			for _, br := range brs {
				got, ok := c.DecodeBranchAt(b, br.Offset)
				if !ok || got.Kind != br.Kind {
					t.Fatalf("predecode/decode disagree at block %d off %d", b, br.Offset)
				}
			}
			return
		}
	}
	t.Fatal("no branches found in 200 blocks")
}

func TestEnvPredecodeVariableNeedsBF(t *testing.T) {
	p := testWorkload()
	p.Mode = isa.Variable
	prog := wl.Generate(p)
	lcfg := llc.DefaultConfig()
	lcfg.DV = llc.DVOn
	uncore := NewUncore(llc.New(lcfg))
	uncore.Preload(prog.Image)
	c := New(DefaultConfig(), wl.NewWalker(prog, 1), prog.Image,
		prefetch.NewBaseline(2048), uncore)

	b := isa.BlockOf(prog.Image.Base)
	// No footprint constructed yet: the pre-decoder is blind.
	if brs := c.Predecode(b); brs != nil {
		t.Fatalf("variable-mode predecode without BF returned %v", brs)
	}
	// After running, footprints exist for hot blocks and some predecodes
	// succeed.
	runCycles(c, 30000)
	found := false
	for blk := b; blk < b+2000 && !found; blk++ {
		if len(c.Predecode(blk)) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no block predecodable after BF construction")
	}
}

func TestEnvPredictTakenIsReadOnly(t *testing.T) {
	c, _ := envCore(t, DefaultConfig())
	pc := isa.Addr(0x1234)
	before := c.PredictTaken(pc)
	for i := 0; i < 100; i++ {
		if c.PredictTaken(pc) != before {
			t.Fatal("PredictTaken mutated predictor state")
		}
	}
}
