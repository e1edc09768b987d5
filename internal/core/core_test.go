package core

import (
	"testing"

	wl "dnc/internal/cfg"
	"dnc/internal/isa"
	"dnc/internal/llc"
	"dnc/internal/prefetch"
)

func testWorkload() wl.Params {
	return wl.Params{
		Name:             "core-test",
		FootprintBytes:   512 << 10,
		LoadFrac:         0.2,
		StoreFrac:        0.08,
		CondFrac:         0.42,
		JumpFrac:         0.07,
		CallFrac:         0.12,
		IndirectCallFrac: 0.06,
		RareBlockFrac:    0.08,
		BackwardFrac:     0.1,
		GenSeed:          5,
	}
}

func newTestCore(t *testing.T, cf Config, design prefetch.Design) (*Core, *Uncore) {
	t.Helper()
	prog := wl.Generate(testWorkload())
	uncore := NewUncore(llc.New(llc.DefaultConfig()))
	uncore.Preload(prog.Image)
	w := wl.NewWalker(prog, 1)
	c := New(cf, w, prog.Image, design, uncore)
	return c, uncore
}

func runCycles(c *Core, n int) {
	for i := 0; i < n; i++ {
		c.Tick()
	}
}

func TestCoreMakesProgress(t *testing.T) {
	c, _ := newTestCore(t, DefaultConfig(), prefetch.NewBaseline(2048))
	runCycles(c, 20000)
	if c.M.Retired == 0 {
		t.Fatal("nothing retired")
	}
	if c.M.Cycles != 20000 {
		t.Fatalf("cycles = %d", c.M.Cycles)
	}
	ipc := c.M.IPC()
	if ipc <= 0.05 || ipc > float64(c.cf.FetchWidth) {
		t.Fatalf("IPC = %.3f out of range", ipc)
	}
}

func TestStallAttributionCoversIdleCycles(t *testing.T) {
	c, _ := newTestCore(t, DefaultConfig(), prefetch.NewBaseline(2048))
	runCycles(c, 20000)
	m := &c.M
	// Every cycle either delivered something or was attributed to a cause.
	attributed := m.StallBackend + m.StallICache + m.StallFTQ + m.StallBTB +
		m.StallMispred + m.StallStartup
	deliveredCycles := m.Cycles - attributed
	// DeliveredSlots >= deliveredCycles (width up to 3 per cycle).
	if m.DeliveredSlots < deliveredCycles {
		t.Fatalf("delivered slots %d < delivering cycles %d", m.DeliveredSlots, deliveredCycles)
	}
	if attributed == 0 {
		t.Fatal("no stalls attributed in a missing-heavy run")
	}
}

func TestMissClassificationPartitions(t *testing.T) {
	c, _ := newTestCore(t, DefaultConfig(), prefetch.NewBaseline(2048))
	runCycles(c, 20000)
	if c.M.SeqMisses+c.M.DiscMisses != c.M.DemandMisses {
		t.Fatalf("%d + %d != %d", c.M.SeqMisses, c.M.DiscMisses, c.M.DemandMisses)
	}
	if c.M.DemandMisses == 0 {
		t.Fatal("no misses on a cold 512KB footprint")
	}
}

func TestPerfectL1iNeverMisses(t *testing.T) {
	cf := DefaultConfig()
	cf.PerfectL1i = true
	c, _ := newTestCore(t, cf, prefetch.NewBaseline(2048))
	runCycles(c, 10000)
	if c.M.DemandMisses != 0 || c.M.StallICache != 0 {
		t.Fatalf("perfect L1i missed: %d misses, %d stall cycles",
			c.M.DemandMisses, c.M.StallICache)
	}
}

func TestPerfectBTBNoBTBStalls(t *testing.T) {
	cf := DefaultConfig()
	cf.PerfectBTB = true
	c, _ := newTestCore(t, cf, prefetch.NewBaseline(2048))
	runCycles(c, 10000)
	if c.M.BTBMissEvents != 0 || c.M.StallBTB != 0 {
		t.Fatalf("perfect BTB produced BTB events: %d, stalls %d",
			c.M.BTBMissEvents, c.M.StallBTB)
	}
}

func TestPerfectFrontendFasterThanBaseline(t *testing.T) {
	base, _ := newTestCore(t, DefaultConfig(), prefetch.NewBaseline(2048))
	runCycles(base, 30000)
	cf := DefaultConfig()
	cf.PerfectL1i = true
	cf.PerfectBTB = true
	perfect, _ := newTestCore(t, cf, prefetch.NewBaseline(2048))
	runCycles(perfect, 30000)
	if perfect.M.IPC() <= base.M.IPC() {
		t.Fatalf("perfect frontend IPC %.3f <= baseline %.3f",
			perfect.M.IPC(), base.M.IPC())
	}
}

func TestPrefetchFillsAndCMAL(t *testing.T) {
	c, _ := newTestCore(t, DefaultConfig(), prefetch.NewNXL(4, 2048))
	runCycles(c, 30000)
	if c.M.PrefetchesIssued == 0 || c.M.PrefetchFills == 0 {
		t.Fatal("no prefetch activity")
	}
	if c.M.UsefulPrefetches == 0 {
		t.Fatal("no useful prefetches")
	}
	cmal := c.M.CMAL()
	if cmal <= 0 || cmal > 1 {
		t.Fatalf("CMAL = %.3f out of range", cmal)
	}
	if c.M.CMALCovered > c.M.CMALTotal {
		t.Fatal("covered exceeds total")
	}
}

// TestPrefetchBufferPromotion: a core gets a prefetch buffer of the
// declared size exactly when its design declares one (prefetch.Bufferer),
// and the catalog Shotgun's prefetches fill it.
func TestPrefetchBufferPromotion(t *testing.T) {
	shotgun, _ := prefetch.FindDesign("shotgun")
	for _, tc := range []struct {
		name string
		d    prefetch.Design
		want int
	}{
		{"baseline", prefetch.NewBaseline(2048), 0},
		{"catalog shotgun", shotgun.New(), 64},
	} {
		c, _ := newTestCore(t, DefaultConfig(), tc.d)
		if c.pfbCap != tc.want || (c.pfb != nil) != (tc.want > 0) {
			t.Fatalf("%s: buffer of %d entries (present %v), want %d", tc.name, c.pfbCap, c.pfb != nil, tc.want)
		}
		if tc.want == 0 {
			continue
		}
		runCycles(c, 30000)
		if c.M.Retired == 0 {
			t.Fatal("no progress with prefetch buffer")
		}
		if c.M.PrefetchFills == 0 || c.pfb.Len() == 0 {
			t.Fatalf("no buffered fills (%d fills, %d blocks buffered)", c.M.PrefetchFills, c.pfb.Len())
		}
	}
}

func TestDeterministicCore(t *testing.T) {
	a, _ := newTestCore(t, DefaultConfig(), prefetch.NewBaseline(2048))
	b, _ := newTestCore(t, DefaultConfig(), prefetch.NewBaseline(2048))
	runCycles(a, 10000)
	runCycles(b, 10000)
	if a.M != b.M {
		t.Fatalf("metrics diverged:\n%+v\n%+v", a.M, b.M)
	}
}

func TestResetMetricsKeepsState(t *testing.T) {
	c, _ := newTestCore(t, DefaultConfig(), prefetch.NewBaseline(2048))
	runCycles(c, 5000)
	c.ResetMetrics()
	if c.M.Cycles != 0 || c.M.Retired != 0 {
		t.Fatal("metrics not reset")
	}
	runCycles(c, 5000)
	if c.M.Retired == 0 {
		t.Fatal("core stopped after reset")
	}
}

func TestWrongPathFetchesHappen(t *testing.T) {
	c, _ := newTestCore(t, DefaultConfig(), prefetch.NewBaseline(2048))
	runCycles(c, 20000)
	if c.M.Mispredicts == 0 {
		t.Fatal("no mispredicts in a branchy workload")
	}
	if c.M.WrongPathFetches == 0 {
		t.Fatal("no wrong-path fetches despite redirects")
	}
}

func TestVariableModeBFConstruction(t *testing.T) {
	p := testWorkload()
	p.Mode = isa.Variable
	prog := wl.Generate(p)
	lcfg := llc.DefaultConfig()
	lcfg.DV = llc.DVOn
	uncore := NewUncore(llc.New(lcfg))
	uncore.Preload(prog.Image)
	c := New(DefaultConfig(), wl.NewWalker(prog, 1), prog.Image, prefetch.NewBaseline(2048), uncore)
	runCycles(c, 20000)
	st := uncore.LLC.Stats()
	if st.BFStores == 0 {
		t.Fatal("no branch footprints written")
	}
	if st.BFStores > 0 && st.BFStoreFails == st.BFStores {
		t.Fatal("every BF store failed")
	}
}

func TestUncoreAccessLatency(t *testing.T) {
	uncore := NewUncore(llc.New(llc.DefaultConfig()))
	// LLC miss path goes to memory.
	ready, hit := uncore.Access(0, 12345, 100, true)
	if hit {
		t.Fatal("hit in empty LLC")
	}
	if ready <= 100+uncore.LLC.AccessCycles() {
		t.Fatalf("miss latency too small: %d", ready-100)
	}
	// Refetch hits.
	ready2, hit2 := uncore.Access(0, 12345, ready, true)
	if !hit2 {
		t.Fatal("block not filled")
	}
	if ready2-ready >= ready-100 {
		t.Fatalf("hit latency %d not below miss latency %d", ready2-ready, ready-100)
	}
}

func TestUncorePreload(t *testing.T) {
	im := isa.NewImage(isa.Fixed, 0x1000, make([]byte, 4096))
	uncore := NewUncore(llc.New(llc.DefaultConfig()))
	uncore.Preload(im)
	if uncore.LLC.InstBlocks() < 4096/isa.BlockBytes {
		t.Fatalf("preload installed %d blocks", uncore.LLC.InstBlocks())
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{Cycles: 10, Retired: 20, DemandMisses: 3, SeqMisses: 2, DiscMisses: 1}
	b := Metrics{Cycles: 5, Retired: 10, DemandMisses: 1, SeqMisses: 1}
	a.Add(&b)
	if a.Cycles != 15 || a.Retired != 30 || a.DemandMisses != 4 || a.SeqMisses != 3 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestMetricsDerived(t *testing.T) {
	m := Metrics{Cycles: 100, Retired: 150, CMALCovered: 30, CMALTotal: 60,
		DemandMisses: 30, SeqMisses: 20,
		StallICache: 5, StallFTQ: 3, StallBTB: 2, StallMispred: 7,
		LLCLatencySum: 500, LLCLatencyCnt: 10}
	if m.IPC() != 1.5 {
		t.Errorf("IPC = %v", m.IPC())
	}
	if m.CMAL() != 0.5 {
		t.Errorf("CMAL = %v", m.CMAL())
	}
	if m.FrontendStalls() != 10 {
		t.Errorf("frontend stalls = %d", m.FrontendStalls())
	}
	if m.SeqMissFraction() != 20.0/30 {
		t.Errorf("seq fraction = %v", m.SeqMissFraction())
	}
	if m.MPKI(30) != 200 {
		t.Errorf("MPKI = %v", m.MPKI(30))
	}
	if m.AvgLLCLatency() != 50 {
		t.Errorf("avg LLC latency = %v", m.AvgLLCLatency())
	}
	var zero Metrics
	if zero.IPC() != 0 || zero.CMAL() != 0 || zero.SeqMissFraction() != 0 ||
		zero.AvgLLCLatency() != 0 || zero.MPKI(1) != 0 {
		t.Error("zero-value metrics must not divide by zero")
	}
}
