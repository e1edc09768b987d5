package sim

import (
	"cmp"
	"context"
	"errors"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	wl "dnc/internal/cfg"
	"dnc/internal/core"
	"dnc/internal/isa"
	"dnc/internal/llc"
	"dnc/internal/obs"
	"dnc/internal/prefetch"
)

// TestShardCount is the shard decision's table: what a run may shard by
// its configuration, and how many of the process's CPUs it takes.
func TestShardCount(t *testing.T) {
	run := func(cores, jobs int, set ...func(*RunConfig)) RunConfig {
		rc := RunConfig{Cores: cores, IntraJobs: jobs, Workload: wl.Params{Mode: isa.Fixed}}
		for _, f := range set {
			f(&rc)
		}
		return rc
	}
	variable := func(rc *RunConfig) { rc.Workload.Mode = isa.Variable }
	tick := func(rc *RunConfig) { rc.Sched = SchedTick }
	traced := func(rc *RunConfig) { rc.Obs = &obs.Config{TraceEvents: 64} }
	hists := func(rc *RunConfig) { rc.Obs = &obs.Config{} }
	for _, c := range []struct {
		name          string
		rc            RunConfig
		wrapped       bool
		procs, others int
		want          int
	}{
		{"16 cores, idle 2-CPU host", run(16, 0), false, 2, 0, 2},
		{"16 cores, idle 8-CPU host: a shard per 4 cores", run(16, 0), false, 8, 0, 4},
		{"16 cores, 6 of 8 CPUs held", run(16, 0), false, 8, 6, 2},
		{"16 cores, the other CPU held", run(16, 0), false, 2, 1, 1},
		{"16 cores, CPUs oversubscribed", run(16, 0), false, 2, 5, 1},
		{"16 cores, GOMAXPROCS=1", run(16, 0), false, 1, 0, 1},
		{"8 cores, idle", run(8, 0), false, 8, 0, 2},
		{"4 cores stay serial", run(4, 0), false, 8, 0, 1},
		{"2 cores stay serial", run(2, 0), false, 8, 0, 1},
		{"variable-length ISA", run(16, 0, variable), false, 8, 0, 1},
		{"variable-length ISA, forced", run(16, 4, variable), false, 8, 0, 1},
		{"tick reference", run(16, 0, tick), false, 8, 0, 1},
		{"injected stream", run(16, 0), true, 8, 0, 1},
		{"event tracer", run(16, 0, traced), false, 8, 0, 1},
		{"histograms only", run(16, 0, hists), false, 8, 0, 4},
		{"forced, whatever is held", run(16, 4), false, 2, 5, 4},
		{"forced, event tracer", run(16, 2, traced), false, 1, 0, 2},
		{"forced beyond the cores", run(2, 8), false, 8, 0, 2},
		{"forced serial", run(16, 1), false, 8, 0, 1},
	} {
		if got := shardCount(c.rc, c.wrapped, c.procs, c.others); got != c.want {
			t.Errorf("%s: %d shards, want %d", c.name, got, c.want)
		}
	}
}

// TestShardedShortLookahead runs the sharded engine with a 1-cycle LLC, so
// the lookahead is 3 cycles and epochs are as short as they get, against the
// tick reference: identical results and snapshot bytes.
func TestShardedShortLookahead(t *testing.T) {
	var ref, refCkpt string
	for _, jobs := range []int{0, 2, 4} {
		rc := checkpointConfig(t, ffDesigns()["proactive"])
		rc.Cores = 4
		rc.LLC = llc.DefaultConfig()
		rc.LLC.AccessCycles = 1
		if jobs == 0 {
			rc.Sched = SchedTick
		}
		rc.IntraJobs = jobs
		res, err := RunChecked(context.Background(), rc)
		if err != nil {
			t.Fatal(err)
		}
		ckpt, err := os.ReadFile(rc.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		res.Engine = ""
		print := fingerprint(t, res)
		if jobs == 0 {
			ref, refCkpt = print, string(ckpt)
			continue
		}
		if print != ref || string(ckpt) != refCkpt {
			t.Errorf("%d shards at a 3-cycle lookahead differ from the tick reference\n got %s\nwant %s", jobs, print, ref)
		}
	}
}

// TestLookaheadViolationIsRunError claims a longer lookahead than the fabric
// honours: the first reply that arrives inside it must stop the run with a
// RunError naming the tile, cycle and block.
func TestLookaheadViolationIsRunError(t *testing.T) {
	defer func(f func(*core.Uncore) uint64) { minRoundTrip = f }(minRoundTrip)
	minRoundTrip = func(u *core.Uncore) uint64 { return u.MinRoundTrip() + 100 }
	rc := checkedConfig()
	rc.IntraJobs = 2
	_, err := RunChecked(context.Background(), rc)
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want a *RunError", err)
	}
	for _, want := range []string{"tile ", "cycle ", "block 0x", "lookahead"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name the %q", err, want)
		}
	}
}

// TestSkippedPatchIsCaught is the anti-vacuity check of the sharded engine's
// tests: with any one kind of reply patch left undone, the run must no longer
// match the serial reference, in its result or in its event trace. (With
// none left undone it must match, trace included: the sharded trace is the
// serial one, merged from per-core rings.)
func TestSkippedPatchIsCaught(t *testing.T) {
	rc := applyDefaults(engineConfig(t, "SN4L+Dis+BTB", 8))
	rc.WarmCycles, rc.MeasureCycles = 20_000, 20_000
	rc.Obs = &obs.Config{TraceEvents: 1 << 16}
	run := func(jobs int, skip core.Patch) (string, []obs.Event) {
		rc := rc
		rc.IntraJobs = jobs
		m, err := buildMachine(rc, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer m.close()
		for _, c := range m.cores {
			c.SkipPatches(skip)
		}
		if err := m.run(context.Background()); err != nil {
			t.Fatal(err)
		}
		res := m.result()
		if res.Obs.TraceDropped > 0 {
			t.Fatalf("the trace ring dropped %d events; enlarge it", res.Obs.TraceDropped)
		}
		ev := res.Obs.Events
		slices.SortFunc(ev, func(a, b obs.Event) int {
			return cmp.Or(cmp.Compare(a.Cycle, b.Cycle), cmp.Compare(a.Core, b.Core),
				cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Arg, b.Arg), cmp.Compare(a.Dur, b.Dur))
		})
		return fingerprint(t, res), ev
	}
	ref, refEv := run(1, 0)
	for _, c := range []struct {
		name string
		skip core.Patch
	}{
		{"none", 0},
		{"MSHR ready", core.PatchReady},
		{"ROB completion", core.PatchComplete},
		{"LLC latency sum", core.PatchLatency},
		{"late-prefetch CMAL", core.PatchCMAL},
		{"prefetch-issue event", core.PatchTrace},
	} {
		print, ev := run(2, c.skip)
		same := print == ref && slices.Equal(ev, refEv)
		switch {
		case c.skip == 0 && !same:
			t.Errorf("the sharded run differs from the serial one (events %d vs %d)\n got %s\nwant %s",
				len(ev), len(refEv), print, ref)
		case c.skip != 0 && same:
			t.Errorf("skipping the %s patch went unnoticed", c.name)
		}
	}
}

// TestConcurrentRunsShareCPUs runs two 16-core simulations at once with
// GOMAXPROCS=2 and IntraJobs 0, their poll boundaries in lockstep. Whatever
// either took when it started alone, once both have decided a segment with
// the other running they hold the two CPUs between them: at every poll
// boundary from the second on, no shard worker goroutine is alive.
func TestConcurrentRunsShareCPUs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var (
		mu       sync.Mutex
		turn     = sync.NewCond(&mu)
		polls    [2]int
		finished [2]bool
		checked  int
		overheld int64
		wg       sync.WaitGroup
	)
	errs := make([]error, 2)
	for i := range 2 {
		rc := engineConfig(t, "SN4L+Dis+BTB", 16)
		rc.WarmCycles, rc.MeasureCycles = 10_000, 10_000
		rc.Seed = int64(i + 1)
		rc.OnAdvance = func(uint64) {
			mu.Lock()
			defer mu.Unlock()
			polls[i]++
			turn.Broadcast()
			for polls[1-i] < polls[i] && !finished[1-i] {
				turn.Wait()
			}
			// Both runs are here, and both decided their last segment
			// after the other had started.
			if polls[i] >= 2 && !finished[1-i] {
				checked++
				overheld = max(overheld, shardWorkers.Load())
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = RunChecked(context.Background(), rc)
			mu.Lock()
			finished[i] = true
			turn.Broadcast()
			mu.Unlock()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("the runs never met past their first poll boundary")
	}
	if overheld > 0 {
		t.Errorf("two runs on 2 CPUs kept %d shard worker goroutines past their first poll boundary", overheld)
	}
	if n, w := cpusHeld.Load(), shardWorkers.Load(); n != 0 || w != 0 {
		t.Errorf("after both runs, %d CPUs held and %d workers alive; want none", n, w)
	}
}

// tickBomb is a design whose Tick panics on its 500th call.
type tickBomb struct {
	prefetch.Design
	ticks int
}

func (d *tickBomb) Tick() {
	if d.ticks++; d.ticks == 500 {
		panic("injected tick failure")
	}
	d.Design.Tick()
}

// TestShardPanicIsRunError: a panic inside an epoch, on the coordinator's
// goroutine or a worker's, ends the run with a RunError carrying the panic,
// and leaves no worker behind.
func TestShardPanicIsRunError(t *testing.T) {
	for _, victim := range []int{0, 3} {
		rc := checkedConfig()
		rc.Cores, rc.IntraJobs = 4, 2
		made := 0
		rc.NewDesign = func() prefetch.Design {
			d := prefetch.Design(prefetch.NewBaseline(2048))
			if made == victim {
				d = &tickBomb{Design: d}
			}
			made++
			return d
		}
		_, err := RunChecked(context.Background(), rc)
		var re *RunError
		if !errors.As(err, &re) || !strings.Contains(err.Error(), "injected tick failure") {
			t.Errorf("core %d: got %v, want a RunError carrying the panic", victim, err)
		}
		if w := shardWorkers.Load(); w != 0 {
			t.Errorf("core %d: %d shard workers outlived the run", victim, w)
		}
	}
}
