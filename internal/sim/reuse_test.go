package sim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	wl "dnc/internal/cfg"
	"dnc/internal/isa"
	"dnc/internal/llc"
	"dnc/internal/prefetch"
)

// The tests in this file hold RunChecked — which starts every run from a
// recycled LLC that computes the program's preload set by set on first
// touch — against a reference that does neither: a machine whose LLC comes
// from llc.New and is warmed by inserting every image block up front, as
// every run's was before LLCs were reused.

// outcome is everything of a run that must not depend on LLC reuse.
type outcome struct {
	fingerprint string
	checkpoint  string // the run's last snapshot file, "" when it wrote none
}

func outcomeOf(t *testing.T, rc RunConfig, r Result) outcome {
	t.Helper()
	o := outcome{fingerprint: fingerprint(t, r)}
	if rc.CheckpointPath != "" {
		b, err := os.ReadFile(rc.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		o.checkpoint = string(b)
	}
	return o
}

// eagerPreload is the reference llc.Warm is held to: every block of the image
// Inserted, in ascending order, into the empty LLC.
func eagerPreload(l *llc.LLC, im *isa.Image) {
	for b := isa.BlockOf(im.Base); b <= isa.BlockOf(im.End()-1); b++ {
		l.Insert(b, true)
	}
}

// referenceRun runs rc on a never-used, eagerly preloaded LLC.
func referenceRun(t *testing.T, rc RunConfig) outcome {
	t.Helper()
	rc = applyDefaults(rc)
	m, err := buildMachine(rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	m.uncore.Release()
	m.uncore.LLC = llc.New(rc.LLC)
	eagerPreload(m.uncore.LLC, m.prog.Image)
	if rc.ResumeFrom != "" {
		if err := m.restoreFrom(rc.ResumeFrom); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return outcomeOf(t, rc, m.result())
}

func pooledRun(t *testing.T, rc RunConfig) outcome {
	t.Helper()
	r, err := RunChecked(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	return outcomeOf(t, rc, r)
}

func mustEqual(t *testing.T, what string, got, want outcome) {
	t.Helper()
	if got.fingerprint != want.fingerprint {
		t.Errorf("%s: result differs from the run on a never-used LLC", what)
	}
	if got.checkpoint != want.checkpoint {
		t.Errorf("%s: checkpoint bytes differ from the run on a never-used LLC", what)
	}
}

// cellA is the test's main cell: fixed-length ISA, baseline design, default
// LLC, snapshots on.
func cellA(t *testing.T) RunConfig {
	rc := checkedConfig()
	rc.CheckpointEvery = 8192
	rc.CheckpointPath = filepath.Join(t.TempDir(), "a.ckpt")
	return rc
}

// cellB differs from cellA in everything reuse could leak through: another
// program, variable-length ISA (so the default LLC has DV on and stores
// footprints), the most stateful design, another seed.
func cellB(t *testing.T) RunConfig {
	rc := checkedConfig()
	rc.Workload = variableWorkload()
	rc.NewDesign = func() prefetch.Design {
		c := prefetch.DefaultProactiveConfig()
		c.WithBTBPrefetch = true
		return prefetch.NewProactive(c)
	}
	rc.Seed = 5
	rc.CheckpointEvery = 8192
	rc.CheckpointPath = filepath.Join(t.TempDir(), "b.ckpt")
	return rc
}

func variableWorkload() wl.Params {
	p := smallWorkload()
	p.Name, p.Mode, p.GenSeed = "sim-test-vl", isa.Variable, 10
	return p
}

// TestReuseAcrossCells: A, then B, then A again in one process. Every one of
// them — the A that follows B above all — equals its reference.
func TestReuseAcrossCells(t *testing.T) {
	a, b := cellA(t), cellB(t)
	wantA, wantB := referenceRun(t, a), referenceRun(t, b)
	mustEqual(t, "first A", pooledRun(t, a), wantA)
	gotB, err := RunChecked(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if gotB.LLCStats.BFStores == gotB.LLCStats.BFStoreFails {
		t.Fatal("B stored no footprints: the DV path went unexercised")
	}
	mustEqual(t, "B", outcomeOf(t, b, gotB), wantB)
	mustEqual(t, "A after B", pooledRun(t, a), wantA)
	// B again on A's LLC configuration (DV off): now the two share a pool
	// entry, and A's next run starts on the very LLC B just left.
	b.LLC = applyDefaults(a).LLC
	mustEqual(t, "B with DV off", pooledRun(t, b), referenceRun(t, b))
	mustEqual(t, "A after B with DV off", pooledRun(t, a), wantA)
}

// panicStream dies after a number of instructions.
type panicStream struct {
	wl.Stream
	left int
}

func (s *panicStream) Next(st *wl.Step) {
	if s.left--; s.left < 0 {
		panic("injected stream failure")
	}
	s.Stream.Next(st)
}

// TestReuseAfterAbortedRun: a run that dies mid-window leaves its LLC in
// whatever state it had, and that LLC goes back to the pool. The next cell —
// another one, of the same LLC configuration so that it gets that LLC — must
// not be able to tell.
func TestReuseAfterAbortedRun(t *testing.T) {
	next := cellA(t)
	next.Seed = 3
	want := referenceRun(t, next)

	aborts := map[string]func() error{
		"cancelled context": func() error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rc := checkedConfig()
			rc.OnAdvance = func(cycle uint64) {
				if cycle >= 12*checkEvery {
					cancel()
				}
			}
			_, err := RunChecked(ctx, rc)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want a cancelled run, got %v", err)
			}
			return err
		},
		"panicking stream": func() error {
			_, err := RunInjected(context.Background(), checkedConfig(), func(i int, s wl.Stream) wl.Stream {
				if i == 1 {
					return &panicStream{Stream: s, left: 9000}
				}
				return s
			})
			var re *RunError
			if !errors.As(err, &re) || len(re.Stack) == 0 {
				t.Fatalf("want a recovered panic, got %v", err)
			}
			return err
		},
		"livelock": func() error {
			rc := checkedConfig()
			rc.NewDesign = newStuck
			rc.WatchdogCycles = 4000
			_, err := RunChecked(context.Background(), rc)
			if !errors.Is(err, ErrLivelock) {
				t.Fatalf("want livelock, got %v", err)
			}
			return err
		},
	}
	for name, abort := range aborts {
		if abort() == nil {
			t.Fatalf("%s: run did not abort", name)
		}
		mustEqual(t, "clean run after "+name, pooledRun(t, next), want)
	}
}

// TestResumeOntoRecycledLLC: the snapshot of an interrupted A restores onto
// an LLC that B dirtied in between, and finishes as the straight run does.
func TestResumeOntoRecycledLLC(t *testing.T) {
	a := cellA(t)
	straight := referenceRun(t, a) // leaves A's last snapshot (cycle 32768 of 40000) behind
	b := cellB(t)
	b.LLC = applyDefaults(a).LLC
	pooledRun(t, b)

	a.ResumeFrom, a.CheckpointPath, a.CheckpointEvery = a.CheckpointPath, "", 0
	if resumed := pooledRun(t, a); resumed.fingerprint != straight.fingerprint {
		t.Error("run resumed onto a recycled LLC differs from the straight run")
	}
}

// TestReuseKeepsConfigurationsApart: runs with a non-default LLC (size,
// footprint capacity, DV on a fixed-length workload) interleave with default
// ones; none may start from another's backing or preload.
func TestReuseKeepsConfigurationsApart(t *testing.T) {
	def := cellA(t)
	smaller := cellA(t)
	smaller.LLC = llc.DefaultConfig()
	smaller.LLC.SizeBytes = 1 << 20 // the 1 MB footprint no longer fits beside the data
	fewBFs := cellB(t)
	fewBFs.LLC = llc.DefaultConfig()
	fewBFs.LLC.DV, fewBFs.LLC.BFsPerSet = llc.DVOn, 2
	dvFixed := cellA(t)
	dvFixed.LLC = llc.DefaultConfig()
	dvFixed.LLC.DV = llc.DVOn

	cells := []struct {
		name string
		rc   RunConfig
	}{
		{"default", def}, {"1 MB LLC", smaller}, {"default after 1 MB LLC", def},
		{"2 footprints per set", fewBFs}, {"DV on a fixed-length run", dvFixed},
		{"1 MB LLC again", smaller}, {"default after the others", def},
	}
	want := make([]outcome, len(cells))
	for i, c := range cells {
		want[i] = referenceRun(t, c.rc)
	}
	if want[0] == want[1] || want[0] == want[4] {
		t.Fatal("the variants do not change the run: the comparison below would prove nothing")
	}
	for i, c := range cells {
		mustEqual(t, c.name, pooledRun(t, c.rc), want[i])
	}
}

// TestWarmCacheHoldsProgramsOnly: runs of one program under many LLC
// configurations add the program to the warm cache and
// nothing else — the LLC state each run starts from is computed in its own
// LLC, not built once per (program, configuration) and kept.
func TestWarmCacheHoldsProgramsOnly(t *testing.T) {
	rc := checkedConfig()
	rc.Workload.GenSeed = 9500 // a program nothing else in the package uses
	rc.WarmCycles, rc.MeasureCycles = 1000, 1000
	size := func() int {
		warm.mu.Lock()
		defer warm.mu.Unlock()
		return len(warm.m)
	}
	before := size()
	for i := 0; i < 6; i++ {
		rc.LLC = llc.DefaultConfig()
		rc.LLC.SizeBytes = 1 << 20
		rc.LLC.AccessCycles = uint64(100 + i) // a configuration nothing else uses
		Run(rc)
	}
	if n := size() - before; n > 1 {
		t.Errorf("six runs of one program under six LLC configurations added %d cache entries, want 1", n)
	}
	warm.mu.Lock()
	_, ok := warm.m[rc.Workload]
	warm.mu.Unlock()
	if !ok {
		t.Error("the program the runs used is not cached")
	}
}

// TestProgramCacheIsSingleFlightAndBounded: goroutines that arrive together
// for a workload nothing has generated yet — the first cells a fresh worker
// receives — get one program, not one each; and a process that keeps meeting
// new parameter sets (the fuzzing harness) keeps at most warmCap entries, the
// most recently used ones.
func TestProgramCacheIsSingleFlightAndBounded(t *testing.T) {
	paramsAt := func(i int) wl.Params {
		p := smallWorkload()
		p.FootprintBytes = 16 << 10
		p.GenSeed = int64(9000 + i) // a key nothing else in the package uses
		return p
	}
	cached := func(i int) bool {
		warm.mu.Lock()
		defer warm.mu.Unlock()
		_, ok := warm.m[paramsAt(i)]
		return ok
	}

	got := make([]*wl.Program, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = Program(paramsAt(0))
		}()
	}
	wg.Wait()
	for g, prog := range got {
		if prog == nil || prog != got[0] {
			t.Fatalf("goroutine %d got program %p, goroutine 0 got %p", g, prog, got[0])
		}
	}

	for i := 1; i < 3*warmCap; i++ {
		Program(paramsAt(i))
		Program(paramsAt(1)) // stays the most recently used but one
	}
	warm.mu.Lock()
	n := len(warm.m)
	warm.mu.Unlock()
	if n > warmCap {
		t.Errorf("%d entries cached, bound %d", n, warmCap)
	}
	if cached(0) || !cached(1) || !cached(3*warmCap-1) {
		t.Errorf("cached: oldest %v, kept in use %v, newest %v; want false, true, true",
			cached(0), cached(1), cached(3*warmCap-1))
	}
}

// TestRefusedProgramFailsEveryRun: parameters Generate refuses reach it past
// Validate (it does not look at block lengths). Every run of them, a retried
// cell or cells that arrive together, fails with Generate's message; none
// waits on another's failed build or finds a half-built entry.
func TestRefusedProgramFailsEveryRun(t *testing.T) {
	rc := checkedConfig()
	rc.Workload.AvgBlockInsts = 40000
	errs := make([]error, 6)
	_, errs[0] = RunChecked(context.Background(), rc)
	_, errs[1] = RunChecked(context.Background(), rc)
	var wg sync.WaitGroup
	for g := 2; g < len(errs); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[g] = RunChecked(context.Background(), rc)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		var re *RunError
		if !errors.As(err, &re) || !strings.Contains(err.Error(), "AvgBlockInsts = 40000") {
			t.Errorf("run %d: error %v, want a RunError naming AvgBlockInsts = 40000", g, err)
		}
	}
	warm.mu.Lock()
	_, kept := warm.m[rc.Workload]
	warm.mu.Unlock()
	if kept {
		t.Error("the failed build left its entry in the cache")
	}
}

// TestHeldResultsDoNotRetainLLC: results are kept — by a sweep report, by the
// bench harness — long after their runs. One that reached its machine (as
// they did through their design instances, before those were reduced to
// probe counters) would pin an LLC per cell and, the LLC being recycled,
// alias another run's cache.
func TestHeldResultsDoNotRetainLLC(t *testing.T) {
	rc := checkedConfig()
	rc.NewDesign = func() prefetch.Design { return prefetch.NewShotgun(prefetch.ShotgunDesignConfig{}) }

	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // a second cycle empties sync.Pool's victim cache
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	Run(rc) // the program stays, and is not the results'
	before := heap()
	const n = 8
	held := make([]Result, n)
	for i := range held {
		rc.Seed = int64(i + 1)
		held[i] = Run(rc)
	}
	perResult := (int64(heap()) - int64(before)) / n
	llcBytes := int64(llc.DefaultConfig().SizeBytes / isa.BlockBytes * 16) // two words per line
	t.Logf("%d KB retained per held result (an LLC is %d KB)", perResult>>10, llcBytes>>10)
	if perResult > 64<<10 {
		t.Errorf("a held result retains %d KB: it reaches more than its own counters", perResult>>10)
	}
	for _, r := range held {
		if r.Probes == nil || r.Probes.UBTBLookups == 0 {
			t.Fatal("a held result's design probe reads nothing")
		}
	}
}

// TestRunFixedAllocs pins what one more run of an already-seen cell
// allocates. Before LLCs were flat and recycled that was 32.9K allocations
// and 22 MB (one slice per LLC set); a reintroduced per-set or per-run LLC
// allocation lands far above these ceilings. The minimum over several runs
// is taken because sync.Pool may drop the recycled LLC (after two GC cycles;
// at random under the race detector), which is legitimate and not the point.
func TestRunFixedAllocs(t *testing.T) {
	const (
		maxAllocs = 1000
		maxBytes  = 2 << 20
	)
	rc := fixedCostConfig(t)
	Run(rc)
	minAllocs, minBytes := ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 10; i++ {
		runtime.ReadMemStats(&before)
		Run(rc)
		runtime.ReadMemStats(&after)
		minAllocs = min(minAllocs, after.Mallocs-before.Mallocs)
		minBytes = min(minBytes, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a %d+%d-cycle run: %d allocations, %d KB", rc.WarmCycles, rc.MeasureCycles, minAllocs, minBytes>>10)
	if minAllocs > maxAllocs {
		t.Errorf("a run makes %d allocations, ceiling %d", minAllocs, maxAllocs)
	}
	if minBytes > maxBytes {
		t.Errorf("a run allocates %d KB, ceiling %d KB", minBytes>>10, maxBytes>>10)
	}
}
