package sim

import (
	"context"
	"testing"

	"dnc/internal/isa"
	"dnc/internal/prefetch"
	"dnc/internal/workloads"
)

// retireConfig is a 4-core OLTP-DB-A run, 20K+20K, of the given design.
func retireConfig(nd func() prefetch.Design) RunConfig {
	return RunConfig{
		Workload:      workloads.Params("OLTP-DB-A", isa.Fixed),
		NewDesign:     nd,
		Cores:         4,
		WarmCycles:    20_000,
		MeasureCycles: 20_000,
		Seed:          1,
	}
}

// runMachine runs rc to completion.
func runMachine(t *testing.T, rc RunConfig) Result {
	t.Helper()
	r, err := RunChecked(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRetireInWindow: a 4-core baseline run (no Retirer) retires
// instructions inside pure-stall windows, serially and on two shards, and
// its result equals the references that tick every cycle (DisableFastForward
// and SchedTick); DisableFastForward never retires inside a window.
func TestRetireInWindow(t *testing.T) {
	base := retireConfig(func() prefetch.Design { return prefetch.NewBaseline(2048) })
	ref := runMachine(t, func() RunConfig { rc := base; rc.DisableFastForward = true; return rc }())
	if ref.WindowRetired != 0 {
		t.Fatalf("DisableFastForward retired %d instructions inside windows", ref.WindowRetired)
	}
	ref.Engine = "" // provenance differs by construction
	want := fingerprint(t, ref)
	for _, v := range []struct {
		name     string
		set      func(*RunConfig)
		inWindow bool
	}{
		{"wheel", func(*RunConfig) {}, true},
		{"wheel/2 shards", func(rc *RunConfig) { rc.IntraJobs = 2 }, true},
		{"tick", func(rc *RunConfig) { rc.Sched = SchedTick }, true},
	} {
		rc := base
		v.set(&rc)
		got := runMachine(t, rc)
		got.Engine = ""
		if in := got.WindowRetired; (in > 0) != v.inWindow || in > got.M.Retired {
			t.Errorf("%s: %d of %d instructions retired inside windows, want some: %v",
				v.name, in, got.M.Retired, v.inWindow)
		}
		if fingerprint(t, got) != want {
			t.Errorf("%s: result differs from the DisableFastForward reference", v.name)
		}
	}
}

// TestTickedCycles: the references tick every core every cycle, so they
// report exactly cores x cycles; the default engine skips pure-stall
// windows and reports less.
func TestTickedCycles(t *testing.T) {
	base := retireConfig(func() prefetch.Design { return prefetch.NewBaseline(2048) })
	all := uint64(base.Cores) * (base.WarmCycles + base.MeasureCycles)
	for _, v := range []struct {
		name string
		set  func(*RunConfig)
		all  bool
	}{
		{"DisableFastForward", func(rc *RunConfig) { rc.DisableFastForward = true }, true},
		{"SchedTick", func(rc *RunConfig) { rc.Sched = SchedTick }, true},
		{"wheel", func(*RunConfig) {}, false},
		{"wheel/2 shards", func(rc *RunConfig) { rc.IntraJobs = 2 }, false},
	} {
		rc := base
		v.set(&rc)
		r, err := RunChecked(context.Background(), rc)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case v.all && r.TickedCycles != all:
			t.Errorf("%s ticked %d core-cycles, want cores x cycles = %d", v.name, r.TickedCycles, all)
		case !v.all && (r.TickedCycles == 0 || r.TickedCycles >= all):
			t.Errorf("%s ticked %d core-cycles, want fewer than %d and some", v.name, r.TickedCycles, all)
		}
	}
}

// retireLog is a Retirer wrapped around a catalog design: it forwards every
// hook and records each retirement with the cycle it was called at, so a
// run can be compared, call for call, with the tick-every-cycle reference.
type retireLog struct {
	prefetch.Design
	env   prefetch.Env
	calls uint64
	// atWarmEnd is calls when the warm-up window closed.
	atWarmEnd uint64
	digest    uint64
}

func (l *retireLog) Bind(env prefetch.Env) {
	l.env = env
	l.Design.Bind(env)
}

func (l *retireLog) Quiescent() bool { return l.Design.(prefetch.Quiescer).Quiescent() }

func (l *retireLog) BufferEntries() int {
	if b, ok := l.Design.(prefetch.Bufferer); ok {
		return b.BufferEntries()
	}
	return 0
}

func (l *retireLog) OnRetire(inst isa.Inst, taken bool, target isa.Addr) {
	l.calls++
	for _, v := range [...]uint64{l.env.Cycle(), uint64(inst.PC), uint64(target)} {
		l.digest = (l.digest ^ v) * 1099511628211
	}
	l.Design.(prefetch.Retirer).OnRetire(inst, taken, target)
}

// TestRetirerSeesEveryRetirement: a Retirer design keeps its core awake for
// each retirement, so under every engine it sees each one exactly once, in
// order and at its cycle — the calls over the measurement window equal the
// retired count, and the cycle-stamped call sequence equals the
// DisableFastForward reference's.
func TestRetirerSeesEveryRetirement(t *testing.T) {
	var retirers []prefetch.CatalogEntry
	for _, e := range prefetch.Catalog() {
		if _, ok := e.New().(prefetch.Retirer); ok {
			retirers = append(retirers, e)
		}
	}
	if len(retirers) == 0 {
		t.Fatal("no catalog design is a Retirer")
	}
	for _, e := range retirers {
		t.Run(e.Name, func(t *testing.T) {
			run := func(set func(*RunConfig)) (Result, []*retireLog) {
				var logs []*retireLog
				rc := retireConfig(func() prefetch.Design {
					l := &retireLog{Design: e.New()}
					logs = append(logs, l)
					return l
				})
				rc.OnAdvance = func(cycle uint64) {
					if cycle == rc.WarmCycles {
						for _, l := range logs {
							l.atWarmEnd = l.calls
						}
					}
				}
				set(&rc)
				r, err := RunChecked(context.Background(), rc)
				if err != nil {
					t.Fatal(err)
				}
				return r, logs
			}
			_, ref := run(func(rc *RunConfig) { rc.DisableFastForward = true })
			for _, v := range []struct {
				name string
				set  func(*RunConfig)
			}{
				{"wheel", func(*RunConfig) {}},
				{"wheel/2 shards", func(rc *RunConfig) { rc.IntraJobs = 2 }},
			} {
				r, logs := run(v.set)
				for i, l := range logs {
					if got, want := l.calls-l.atWarmEnd, r.PerCore[i].Retired; got != want {
						t.Errorf("%s core %d: %d OnRetire calls in the measurement window, %d retired", v.name, i, got, want)
					}
					if l.calls != ref[i].calls || l.digest != ref[i].digest {
						t.Errorf("%s core %d: %d calls (digest %#x), the reference made %d (digest %#x)",
							v.name, i, l.calls, l.digest, ref[i].calls, ref[i].digest)
					}
				}
			}
		})
	}
}
