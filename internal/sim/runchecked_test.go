package sim

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dnc/internal/core"
	"dnc/internal/isa"
	"dnc/internal/llc"
	"dnc/internal/prefetch"
)

// stuckDesign gates the FTQ closed forever: fetch never proceeds, nothing
// retires, and the livelock watchdog must fire.
type stuckDesign struct{ prefetch.Base }

func (*stuckDesign) Name() string                                  { return "stuck" }
func (*stuckDesign) BTBLookup(isa.Addr, isa.Kind) (isa.Addr, bool) { return 0, false }
func (*stuckDesign) BTBCommit(isa.Addr, isa.Kind, isa.Addr, bool)  {}
func (*stuckDesign) FTQGate(isa.Addr) bool                         { return false }

func newStuck() prefetch.Design { return &stuckDesign{} }

func checkedConfig() RunConfig {
	return RunConfig{
		Workload:      smallWorkload(),
		NewDesign:     func() prefetch.Design { return prefetch.NewBaseline(2048) },
		Cores:         2,
		WarmCycles:    20_000,
		MeasureCycles: 20_000,
		Seed:          1,
	}
}

// TestPartialCoreConfigKeepsItsFields: a core configuration that sets only
// PerfectL1i is the default core with a perfect L1i, not the default core
// whole, and runs exactly as that filled-in form does. The all-zero
// configuration is still the default core, and a negative WrongPathBlocks
// (wrong-path fetch off) is kept.
func TestPartialCoreConfigKeepsItsFields(t *testing.T) {
	rc := checkedConfig()
	rc.Core = core.Config{PerfectL1i: true}
	want := core.DefaultConfig()
	want.PerfectL1i = true
	if got := applyDefaults(rc).Core; !reflect.DeepEqual(got, want) {
		t.Fatalf("partial config became %+v, want %+v", got, want)
	}
	partial := Run(rc)
	if partial.M.DemandAccesses == 0 || partial.M.DemandMisses != 0 {
		t.Errorf("the partial config made %d L1i accesses with %d misses: it ran a normal L1i", partial.M.DemandAccesses, partial.M.DemandMisses)
	}
	rc.Core = want
	if fingerprint(t, partial) != fingerprint(t, Run(rc)) {
		t.Error("the partial config runs differently from its filled-in form")
	}

	rc.Core = core.Config{}
	if got := applyDefaults(rc).Core; !reflect.DeepEqual(got, core.DefaultConfig()) {
		t.Errorf("zero config became %+v, want the default core", got)
	}
	rc.Core = core.Config{WrongPathBlocks: -1}
	if got := applyDefaults(rc).Core.WrongPathBlocks; got != -1 {
		t.Errorf("WrongPathBlocks -1 became %d", got)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	good := checkedConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}

	bad := good
	bad.NewDesign = nil
	if bad.Validate() == nil {
		t.Error("nil NewDesign accepted")
	}

	bad = good
	bad.Cores = 17
	if bad.Validate() == nil {
		t.Error("17 cores on a 4x4 mesh accepted")
	}
	bad.Cores = -1
	if bad.Validate() == nil {
		t.Error("negative cores accepted")
	}

	bad = good
	bad.Workload.FootprintBytes = -5
	if bad.Validate() == nil {
		t.Error("negative footprint accepted")
	}

	bad = good
	bad.Workload.CondFrac = 1.5
	if bad.Validate() == nil {
		t.Error("CondFrac > 1 accepted")
	}

	bad = good
	bad.Workload.CondFrac, bad.Workload.JumpFrac, bad.Workload.CallFrac = 0.5, 0.4, 0.3
	if bad.Validate() == nil {
		t.Error("branch fractions summing past 1 accepted")
	}
}

// TestPartialLLCConfigKeepsItsFields: an LLC configuration that sets only
// some fields keeps them, and each zero field takes its default; it is not
// swapped for the defaults whole. The default DV setting, in a partial
// configuration as in the all-zero one, means DV on in variable mode only.
func TestPartialLLCConfigKeepsItsFields(t *testing.T) {
	rc := checkedConfig()
	rc.Workload = variableWorkload()
	rc.LLC = llc.Config{BFsPerSet: 2}
	want := llc.DefaultConfig()
	want.DV, want.BFsPerSet = llc.DVOn, 2
	if got := applyDefaults(rc).LLC; got != want {
		t.Fatalf("partial config became %+v, want %+v", got, want)
	}
	partial := Run(rc)
	if s := partial.LLCStats; s.BFStores == s.BFStoreFails {
		t.Errorf("the partial config stored no footprint (%+v): it ran with DV off", s)
	}
	rc.LLC = want
	if fingerprint(t, partial) != fingerprint(t, Run(rc)) {
		t.Error("the partial config runs differently from its filled-in form")
	}

	for _, mode := range []isa.Mode{isa.Fixed, isa.Variable} {
		rc.LLC, rc.Workload.Mode = llc.Config{}, mode
		want := llc.DefaultConfig()
		want.DV = llc.DVOff
		if mode == isa.Variable {
			want.DV = llc.DVOn
		}
		if got := applyDefaults(rc).LLC; got != want {
			t.Errorf("zero config in %v mode became %+v, want %+v", mode, got, want)
		}
	}
}

// TestZeroLLCIsTheDefaultLLC: the zero LLC configuration and
// llc.DefaultConfig() simulate the same machine in both ISA modes, the
// DV-LLC on exactly for variable-length code whichever a caller passes.
func TestZeroLLCIsTheDefaultLLC(t *testing.T) {
	for _, mode := range []isa.Mode{isa.Fixed, isa.Variable} {
		rc := checkedConfig()
		rc.Workload.Mode = mode
		zero := Run(rc)
		rc.LLC = llc.DefaultConfig()
		def := Run(rc)
		if fingerprint(t, def) != fingerprint(t, zero) {
			t.Errorf("%v mode: RunConfig{LLC: llc.DefaultConfig()} runs differently from RunConfig{}", mode)
		}
		if s := def.LLCStats; (s.BFStores > s.BFStoreFails) != (mode == isa.Variable) {
			t.Errorf("%v mode: the default LLC stored %d of %d footprints; want some exactly in variable mode",
				mode, s.BFStores-s.BFStoreFails, s.BFStores)
		}
	}
}

// TestLLCOccupancyIsCounted: the occupancy a run reports at the ends of its
// measurement window is the LLC's valid lines there, the preloaded image's
// included, and no encoding of the result carries it.
func TestLLCOccupancyIsCounted(t *testing.T) {
	rc := checkedConfig()
	r := Run(rc)
	image := int(isa.BlockOf(Program(rc.Workload).Image.End()-1)-isa.BlockOf(Program(rc.Workload).Image.Base)) + 1
	from, to := r.LLCOccupancy[0], r.LLCOccupancy[1]
	if from <= image || to < from || to-from > int(r.LLCStats.DataAccesses+r.LLCStats.InstAccesses) {
		t.Errorf("occupancy %d -> %d over a %d-block image and %d LLC accesses",
			from, to, image, r.LLCStats.DataAccesses+r.LLCStats.InstAccesses)
	}
	if r.LLCStats.Evictions == 0 && to-from != int(r.LLCStats.DataAccesses+r.LLCStats.InstAccesses-r.LLCStats.DataHits-r.LLCStats.InstHits) {
		t.Errorf("no evictions, so every miss fills an empty way: occupancy grew %d over %d misses",
			to-from, r.LLCStats.DataAccesses+r.LLCStats.InstAccesses-r.LLCStats.DataHits-r.LLCStats.InstHits)
	}
	if strings.Contains(fingerprint(t, r), "Occupancy") {
		t.Error("the result's JSON carries the occupancy")
	}
}

func TestRunCheckedMatchesRun(t *testing.T) {
	rc := checkedConfig()
	direct := Run(rc)
	checked, err := RunChecked(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if direct.M != checked.M {
		t.Fatalf("checked run diverged from Run:\n%+v\n%+v", direct.M, checked.M)
	}
}

func TestRunCheckedInvalidConfig(t *testing.T) {
	rc := checkedConfig()
	rc.NewDesign = nil
	_, err := RunChecked(context.Background(), rc)
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *RunError, got %v", err)
	}
}

func TestRunCheckedRecoversPanic(t *testing.T) {
	rc := checkedConfig()
	rc.NewDesign = func() prefetch.Design { panic("injected design failure") }
	_, err := RunChecked(context.Background(), rc)
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *RunError, got %v", err)
	}
	if !strings.Contains(re.Error(), "injected design failure") {
		t.Errorf("panic message lost: %v", re)
	}
	if len(re.Stack) == 0 {
		t.Error("no stack captured")
	}
	if re.Config.Workload.Name != rc.Workload.Name {
		t.Errorf("offending config not attached: %+v", re.Config.Workload.Name)
	}
}

func TestWatchdogFiresOnLivelock(t *testing.T) {
	rc := checkedConfig()
	rc.NewDesign = newStuck
	rc.WatchdogCycles = 4000
	_, err := RunChecked(context.Background(), rc)
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("want livelock, got %v", err)
	}
	var le *LivelockError
	if !errors.As(err, &le) {
		t.Fatalf("want *LivelockError in chain, got %v", err)
	}
	if le.NoProgressCycles < 4000 {
		t.Errorf("aborted after only %d stuck cycles", le.NoProgressCycles)
	}
	snap := le.Snapshot
	if len(snap.Cores) != rc.Cores {
		t.Fatalf("snapshot has %d cores, want %d", len(snap.Cores), rc.Cores)
	}
	for _, cs := range snap.Cores {
		if cs.Retired != 0 {
			t.Errorf("tile %d retired %d while supposedly stuck", cs.Tile, cs.Retired)
		}
		if cs.StallCause == "" {
			t.Errorf("tile %d has no stall cause", cs.Tile)
		}
		if cs.MSHRCap == 0 || cs.ROBCap == 0 {
			t.Errorf("tile %d snapshot missing capacities: %+v", cs.Tile, cs)
		}
	}
	if !strings.Contains(err.Error(), "stalled on") {
		t.Errorf("error does not render snapshot: %v", err)
	}
}

func TestWatchdogDisabled(t *testing.T) {
	// A negative threshold disables the watchdog: the stuck run must then be
	// bounded by the context instead of the watchdog.
	rc := checkedConfig()
	rc.NewDesign = newStuck
	rc.WatchdogCycles = -1
	rc.WarmCycles = 1 << 40 // would run ~forever without the deadline
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := RunChecked(ctx, rc)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
}

func TestRunCheckedHonorsCancel(t *testing.T) {
	rc := checkedConfig()
	rc.WarmCycles = 1 << 40
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunChecked(ctx, rc)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want canceled, got %v", err)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("cancellation not wrapped in *RunError: %v", err)
	}
}

func TestRunPanicsOnLivelock(t *testing.T) {
	rc := checkedConfig()
	rc.NewDesign = newStuck
	rc.WatchdogCycles = 3000
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not panic on livelock")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrLivelock) {
			t.Fatalf("Run panicked with %v, want livelock error", r)
		}
	}()
	Run(rc)
}

func TestDerivedMetricsZeroRetirement(t *testing.T) {
	base := Run(checkedConfig())
	var dead Result // e.g. a failed cell's zero value
	for name, v := range map[string]float64{
		"FSCR":           FSCR(dead, base),
		"BandwidthRatio": BandwidthRatio(dead, base),
		"LookupRatio":    LookupRatio(dead, base),
		"Speedup":        Speedup(dead, base),
		"FSCR-dead-base": FSCR(base, dead),
		"BW-dead-base":   BandwidthRatio(base, dead),
		"LK-dead-base":   LookupRatio(base, dead),
	} {
		if v != 0 {
			t.Errorf("%s with zero retirement = %v, want 0", name, v)
		}
	}
}

// TestOneCycleWindowDrainsClean is the regression test for a drain-audit
// false positive: a measurement window too short to inject a packet still
// finds the warm-up's flits booked on the links, which used to fail the NoC
// audit ("link windows hold N flits with zero packets injected"). Resuming
// into such a window must drain clean as well.
func TestOneCycleWindowDrainsClean(t *testing.T) {
	rc := checkedConfig()
	rc.MeasureCycles = 1
	want, err := RunChecked(context.Background(), rc)
	if err != nil {
		t.Fatalf("1-cycle measurement window: %v", err)
	}
	if want.M.Cycles != uint64(rc.Cores) {
		t.Fatalf("measured %d core-cycles, want %d", want.M.Cycles, rc.Cores)
	}

	// One cycle short of 16 polls (a boundary where this workload is quiet): the window's single cycle ends on a poll,
	// so the last snapshot is taken inside the measurement window, and the
	// resumed run restores a mesh that has carried flits and no packet.
	rc.WarmCycles = 16*checkEvery - 1
	rc.CheckpointEvery = checkEvery
	rc.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
	straight, err := RunChecked(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	rc.ResumeFrom, rc.CheckpointEvery = rc.CheckpointPath, 0
	resumed, err := RunChecked(context.Background(), rc)
	if err != nil {
		t.Fatalf("resume into a 1-cycle window: %v", err)
	}
	if fingerprint(t, resumed) != fingerprint(t, straight) {
		t.Error("resumed 1-cycle window differs from the straight run")
	}
	if straight.NoCFlits != 0 {
		t.Logf("the window's one cycle moved %d flits: the packet-less restore went unexercised here", straight.NoCFlits)
	}
}
