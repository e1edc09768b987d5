package difftest

import (
	"context"
	"reflect"
	"strings"
	"testing"

	wl "dnc/internal/cfg"
	"dnc/internal/core"
	"dnc/internal/isa"
	"dnc/internal/llc"
	"dnc/internal/oracle"
	"dnc/internal/prefetch"
	"dnc/internal/sim"
)

// testWorkload is a small footprint so the whole catalog × seed matrix stays
// fast enough for the race job; small is also harder (more capacity churn).
func testWorkload() wl.Params {
	return wl.Params{
		Name:           "difftest",
		Mode:           isa.Fixed,
		FootprintBytes: 256 << 10,
		GenSeed:        11,
	}
}

func testOptions(entry prefetch.CatalogEntry, seed int64) Options {
	return Options{
		RunConfig: sim.RunConfig{
			Workload:  testWorkload(),
			Seed:      seed,
			NewDesign: entry.New,
			// Warm is shorter than the pipeline depth so nothing retires
			// before the measure window: the machine's Retired then equals
			// the count the shims checked, making coverage provable below.
			Cores:         2,
			WarmCycles:    8,
			MeasureCycles: 4096,
		},
		Strict: true,
	}
}

// TestAllDesignsMatchOracle is the acceptance matrix: every catalog design,
// three seeds, strict mode. Zero divergences proves every design is
// architecturally inert — timing may differ, the committed stream may not.
func TestAllDesignsMatchOracle(t *testing.T) {
	seeds := []int64{1, 2, 3}
	measure := uint64(4096)
	if testing.Short() {
		measure = 1536
	}
	for _, entry := range prefetch.Catalog() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				o := testOptions(entry, seed)
				o.MeasureCycles = measure
				res, rep, err := Run(context.Background(), o)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !rep.Ok() {
					t.Fatalf("seed %d diverged:\n%s", seed, rep)
				}
				if rep.Retired == 0 || res.M.Retired == 0 {
					t.Fatalf("seed %d: nothing retired (shim %d, sim %d)",
						seed, rep.Retired, res.M.Retired)
				}
				// Every committed instruction must have been checked: the
				// shims' retire count is the machine's.
				if rep.Retired != res.M.Retired {
					t.Fatalf("seed %d: shim checked %d retires, machine retired %d",
						seed, rep.Retired, res.M.Retired)
				}
				if rep.Transitions == 0 || rep.FirstTouches == 0 {
					t.Fatalf("seed %d: degenerate transition coverage: %+v", seed, rep)
				}
				if rep.SeqFirst+rep.DiscFirst != rep.FirstTouches {
					t.Fatalf("seed %d: first-touch classification doesn't partition: %+v", seed, rep)
				}
			}
		})
	}
}

// TestVariableModeMatchesOracle covers the variable-length ISA path (branch
// footprints, DV-LLC) on one representative design.
func TestVariableModeMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("fixed-mode matrix covers the shim in short mode")
	}
	p := testWorkload()
	p.Mode = isa.Variable
	for _, entry := range prefetch.Catalog() {
		if entry.Name != "SN4L+Dis+BTB" && entry.Name != "shotgun" {
			continue
		}
		o := testOptions(entry, 1)
		o.Workload = p
		_, rep, err := Run(context.Background(), o)
		if err != nil {
			t.Fatalf("%s: %v", entry.Name, err)
		}
		if !rep.Ok() {
			t.Fatalf("%s diverged:\n%s", entry.Name, rep)
		}
	}
}

// mutateStream wraps a Stream, rewriting step n through fn.
type mutateStream struct {
	inner wl.Stream
	n     uint64
	count uint64
	fn    func(*wl.Step)
}

func (m *mutateStream) Next(s *wl.Step) {
	m.inner.Next(s)
	m.count++
	if m.count == m.n {
		m.fn(s)
	}
}

// injectOn returns a wrapper that mutates core 0's stream at step n.
func injectOn(n uint64, fn func(*wl.Step)) sim.StreamWrapper {
	return func(i int, s wl.Stream) wl.Stream {
		if i != 0 {
			return s
		}
		return &mutateStream{inner: s, n: n, fn: fn}
	}
}

// TestInjectedTakenFlipCaught injects the canonical simulator bug class — a
// corrupted committed stream, standing in for a walker/replay/decode defect —
// and asserts the harness reports the first divergent retire on the right
// core with a populated event window.
func TestInjectedTakenFlipCaught(t *testing.T) {
	o := testOptions(prefetch.Catalog()[0], 1)
	o.Strict = false // keep default core config; the bug is architectural
	o.MeasureCycles = 4096
	o.Wrap = injectOn(600, func(s *wl.Step) { s.Taken = !s.Taken })
	_, rep, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("injected Taken flip not caught")
	}
	first := rep.Divergences[0]
	if first.Kind != "retire" {
		t.Fatalf("first divergence kind = %q, want retire: %s", first.Kind, first)
	}
	if first.Core != 0 {
		t.Fatalf("divergence attributed to core %d, want 0: %s", first.Core, first)
	}
	if first.Index != 600 {
		t.Fatalf("first divergent retire at index %d, want 600: %s", first.Index, first)
	}
	out := rep.String()
	if !strings.Contains(out, "first divergence") {
		t.Fatalf("report missing first-divergence line:\n%s", out)
	}
	if len(rep.Window) == 0 {
		t.Fatalf("report has no event window around cycle %d:\n%s", first.Cycle, out)
	}
	for _, ev := range rep.Window {
		if ev.Cycle+windowCycles < first.Cycle || ev.Cycle > first.Cycle+windowCycles {
			t.Fatalf("window event at cycle %d outside ±%d of %d", ev.Cycle, windowCycles, first.Cycle)
		}
	}
}

// TestInjectedPCShiftCaught redirects one committed instruction into a
// different cache block and asserts the block-transition stream check fires.
func TestInjectedPCShiftCaught(t *testing.T) {
	o := testOptions(prefetch.Catalog()[1], 2) // NL: exercises a prefetching design
	o.Strict = false
	o.MeasureCycles = 4096
	o.Wrap = injectOn(500, func(s *wl.Step) { s.Inst.PC += 64 })
	_, rep, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("injected PC shift not caught")
	}
	kinds := map[string]bool{}
	for _, d := range rep.Divergences {
		kinds[d.Kind] = true
	}
	if !kinds["transition"] && !kinds["retire"] {
		t.Fatalf("PC shift produced neither transition nor retire divergence: %s", rep)
	}
}

// TestPhantomResidencyCaught unit-drives the strict first-touch invariant:
// a buggy prefetch path that installs blocks without going through
// Env.IssuePrefetch (phantom residency) must be reported. The real Env makes
// this unrepresentable, so the bug is injected at the hook level.
func TestPhantomResidencyCaught(t *testing.T) {
	prog := sim.Program(testWorkload())
	// A probe oracle with the same seed reveals which block the shim's
	// oracle will expect first.
	first := oracle.New(prog, sim.WalkerSeed(1, 0)).NextTransition()
	s := NewShim(prefetch.NewBaseline(64), oracle.New(prog, sim.WalkerSeed(1, 0)), 0, true)
	// First touch of the entry block reported as a hit, with no recorded
	// prefetch: exactly what a buggy install path would produce.
	s.OnDemand(first.Block, true, [2]isa.Addr{})
	if s.Ok() {
		t.Fatal("phantom first-touch hit not caught")
	}
	d := s.Divergences()[0]
	if d.Kind != "first-touch-hit" {
		t.Fatalf("kind = %q, want first-touch-hit", d.Kind)
	}
}

// TestDeterministicRuns pins run-to-run determinism: two identical runs must
// produce identical metrics and identical observed-stream digest trails.
// This is the regression guard for map-iteration-order (or other scheduling)
// nondeterminism anywhere on the committed path.
func TestDeterministicRuns(t *testing.T) {
	entry := prefetch.Catalog()[10] // SN4L+Dis+BTB: the most stateful proposed design
	run := func() (sim.Result, *Report) {
		res, rep, err := Run(context.Background(), testOptions(entry, 3))
		if err != nil {
			t.Fatal(err)
		}
		return res, rep
	}
	r1, p1 := run()
	r2, p2 := run()
	if r1.M != r2.M {
		t.Fatalf("metrics differ across identical runs:\n%+v\n%+v", r1.M, r2.M)
	}
	if len(p1.DigestTrail) != len(p2.DigestTrail) {
		t.Fatalf("digest trail core counts differ: %d vs %d", len(p1.DigestTrail), len(p2.DigestTrail))
	}
	for i := range p1.DigestTrail {
		a, b := p1.DigestTrail[i], p2.DigestTrail[i]
		if len(a) != len(b) {
			t.Fatalf("core %d: digest trail lengths differ: %d vs %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("core %d: digest trail diverges at checkpoint %d", i, j)
			}
		}
	}
}

// TestDigestTrailSurvivesLLCReuse runs cell A, then a cell B that shares
// nothing with it (variable-length ISA on a DV-LLC, another design, another
// seed), then A again: runs recycle the LLC between them, and A's lockstep
// outcome — metrics and every core's digest trail — must not show it.
// (internal/sim's reuse tests hold the first A against a never-used LLC.)
func TestDigestTrailSurvivesLLCReuse(t *testing.T) {
	catalog := prefetch.Catalog()
	a := testOptions(catalog[0], 2)
	b := testOptions(catalog[10], 3) // SN4L+Dis+BTB
	b.Workload.Mode = isa.Variable
	a.MeasureCycles, b.MeasureCycles = 32768, 16384 // several digestStride retires per core
	run := func(o Options) (sim.Result, *Report) {
		res, rep, err := Run(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Fatalf("diverged:\n%s", rep)
		}
		return res, rep
	}
	r1, p1 := run(a)
	if rb, _ := run(b); rb.LLCStats.BFStores == 0 {
		t.Fatal("B never touched the DV-LLC's footprint store")
	}
	r2, p2 := run(a)
	if r1.M != r2.M || r1.LLCStats != r2.LLCStats {
		t.Fatalf("A after B differs from A:\n%+v\n%+v", r1.M, r2.M)
	}
	if !reflect.DeepEqual(p1.DigestTrail, p2.DigestTrail) {
		t.Fatal("A's digest trail changed after B ran on the recycled LLC")
	}
	if len(p1.DigestTrail) != a.Cores || len(p1.DigestTrail[0]) == 0 {
		t.Fatalf("empty digest trail: %v", p1.DigestTrail)
	}
}

// TestShimKeepsThePrefetchBuffer: the core reads a design's prefetch buffer
// (prefetch.Bufferer) once, when it is built, so a shim that did not forward
// it would run Shotgun without its buffer. A shimmed catalog Shotgun's core
// has the buffer, and prefetches the shim saw issued sit in it: the core
// reports them present (the buffer is probed with the L1i) while the L1i
// itself does not hold them.
func TestShimKeepsThePrefetchBuffer(t *testing.T) {
	entry, _ := prefetch.FindDesign("shotgun")
	prog := sim.Program(testWorkload())
	u := core.NewUncore(llc.New(llc.DefaultConfig()))
	defer u.Release()
	u.Preload(prog.Image)
	seed := sim.WalkerSeed(1, 0)
	s := NewShim(entry.New(), oracle.New(prog, seed), 0, false)
	if s.BufferEntries() != 64 {
		t.Fatalf("the shim reports %d buffer entries, want Shotgun's 64", s.BufferEntries())
	}
	c := core.New(core.Config{}, wl.NewWalker(prog, seed), prog.Image, s, u)
	for range 30_000 {
		c.Tick()
	}
	buffered := 0
	for b := range s.issued {
		if c.L1iContains(b) && !c.L1I().Contains(b) {
			buffered++
		}
	}
	if len(s.issued) == 0 || buffered == 0 {
		t.Fatalf("%d prefetches issued, %d of them in the prefetch buffer", len(s.issued), buffered)
	}
	if !s.Ok() {
		t.Fatalf("diverged: %v", s.Divergences())
	}
}
