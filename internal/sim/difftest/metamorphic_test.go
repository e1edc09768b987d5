package difftest

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"dnc/internal/core"
	"dnc/internal/prefetch"
	"dnc/internal/sim"
)

// TestCrossDesignStreamIdentity is the metamorphic form of "prefetching
// never perturbs the retired stream": every design, run over the same seeds,
// must produce identical observed-stream digests at every common checkpoint.
// The digests are folded from what the shims *observed* retiring (not from
// the oracle), so two designs disagreeing would be caught even if both
// happened to satisfy the oracle checks.
func TestCrossDesignStreamIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("the oracle matrix covers stream identity in short mode")
	}
	var ref *Report
	for _, entry := range prefetch.Catalog() {
		o := testOptions(entry, 1)
		o.MeasureCycles = 6144
		_, rep, err := Run(context.Background(), o)
		if err != nil {
			t.Fatalf("%s: %v", entry.Name, err)
		}
		if !rep.Ok() {
			t.Fatalf("%s diverged:\n%s", entry.Name, rep)
		}
		if ref == nil {
			ref = rep
			for i, trail := range rep.DigestTrail {
				if len(trail) == 0 {
					t.Fatalf("%s: core %d retired too little for a digest checkpoint", entry.Name, i)
				}
			}
			continue
		}
		for i := range rep.DigestTrail {
			a, b := ref.DigestTrail[i], rep.DigestTrail[i]
			n := len(a)
			if len(b) < n {
				n = len(b)
			}
			if n == 0 {
				t.Fatalf("%s: core %d has no digest checkpoint in common with %s", entry.Name, i, ref.Design)
			}
			for j := 0; j < n; j++ {
				if a[j] != b[j] {
					t.Fatalf("%s and %s retire different streams on core %d (digest checkpoint %d: %#x vs %#x)",
						ref.Design, rep.Design, i, j, a[j], b[j])
				}
			}
		}
	}
}

// TestFastForwardDifferentialIdentity is the engine's metamorphic
// equivalence suite: for each design shape (the Base-default baseline, the
// Proactive queue family, boomerang, shotgun) and two seeds, a run with
// idle-cycle fast-forward and the full-tick reference must both pass the
// oracle lockstep, observe identical digest trails, and report identical
// aggregate metrics. Running through the differential harness rather than
// plain sim.Run matters twice over: the shims verify the retired stream
// instruction by instruction, and difftest always enables the
// observability layer, so fast-forward is exercised under tracing and gauge
// sampling too.
func TestFastForwardDifferentialIdentity(t *testing.T) {
	byName := map[string]prefetch.CatalogEntry{}
	for _, e := range prefetch.Catalog() {
		byName[e.Name] = e
	}
	for _, name := range []string{"baseline", "PIF", "boomerang", "shotgun"} {
		entry, ok := byName[name]
		if !ok {
			t.Fatalf("catalog entry %q missing", name)
		}
		for seed := int64(1); seed <= 2; seed++ {
			o := testOptions(entry, seed)
			run := func(disable bool) *Report {
				oo := o
				oo.DisableFastForward = disable
				res, rep, err := Run(context.Background(), oo)
				if err != nil {
					t.Fatalf("%s seed %d (disableFF=%v): %v", name, seed, disable, err)
				}
				if !rep.Ok() {
					t.Fatalf("%s seed %d (disableFF=%v) diverged from the oracle:\n%s", name, seed, disable, rep)
				}
				rep.Retired = res.M.Retired // fold a timing-sensitive metric into the comparison
				return rep
			}
			fast, ref := run(false), run(true)
			if fast.Retired != ref.Retired || fast.Transitions != ref.Transitions {
				t.Errorf("%s seed %d: fast-forward changed timing-visible counts (retired %d vs %d, transitions %d vs %d)",
					name, seed, fast.Retired, ref.Retired, fast.Transitions, ref.Transitions)
			}
			for i := range fast.DigestTrail {
				a, b := fast.DigestTrail[i], ref.DigestTrail[i]
				if len(a) != len(b) {
					t.Fatalf("%s seed %d core %d: digest trail lengths differ (%d vs %d)", name, seed, i, len(a), len(b))
				}
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("%s seed %d core %d: digest checkpoint %d differs (%#x vs %#x)", name, seed, i, j, a[j], b[j])
					}
				}
			}
		}
	}
}

// TestEngineDifferentialIdentity runs the oracle lockstep under every
// engine — the tick reference, the serial loop with its sleep table, and the
// sharded loop with posted requests (forced, event tracer and all) — and requires
// identical digest trails and timing-visible counts.
// This is stronger than comparing plain results: the shims verify the
// retired stream instruction by instruction while the engines reorder the
// work, and the observability layer (always on in difftest) is exercised
// under lagged-core sampling too.
func TestEngineDifferentialIdentity(t *testing.T) {
	byName := map[string]prefetch.CatalogEntry{}
	for _, e := range prefetch.Catalog() {
		byName[e.Name] = e
	}
	for _, name := range []string{"baseline", "PIF", "boomerang", "shotgun"} {
		entry, ok := byName[name]
		if !ok {
			t.Fatalf("catalog entry %q missing", name)
		}
		for seed := int64(1); seed <= 2; seed++ {
			o := testOptions(entry, seed)
			o.Cores = 4
			run := func(sched sim.SchedMode, jobs int) *Report {
				oo := o
				oo.Sched = sched
				oo.IntraJobs = jobs
				res, rep, err := Run(context.Background(), oo)
				if err != nil {
					t.Fatalf("%s seed %d (sched=%v jobs=%d): %v", name, seed, sched, jobs, err)
				}
				if !rep.Ok() {
					t.Fatalf("%s seed %d (sched=%v jobs=%d) diverged from the oracle:\n%s",
						name, seed, sched, jobs, rep)
				}
				if jobs > 1 && res.Shards != jobs {
					t.Fatalf("%s seed %d: asked for %d shards, ran on %d", name, seed, jobs, res.Shards)
				}
				rep.Retired = res.M.Retired
				return rep
			}
			ref := run(sim.SchedTick, 0)
			for _, v := range []struct {
				label string
				sched sim.SchedMode
				jobs  int
			}{{"serial", sim.SchedWheel, 0}, {"sharded", sim.SchedWheel, 2}} {
				got := run(v.sched, v.jobs)
				if got.Retired != ref.Retired || got.Transitions != ref.Transitions {
					t.Errorf("%s seed %d: %s engine changed timing-visible counts (retired %d vs %d, transitions %d vs %d)",
						name, seed, v.label, got.Retired, ref.Retired, got.Transitions, ref.Transitions)
				}
				for i := range got.DigestTrail {
					a, b := got.DigestTrail[i], ref.DigestTrail[i]
					if len(a) != len(b) {
						t.Fatalf("%s seed %d core %d: %s digest trail lengths differ (%d vs %d)",
							name, seed, i, v.label, len(a), len(b))
					}
					for j := range a {
						if a[j] != b[j] {
							t.Fatalf("%s seed %d core %d: %s digest checkpoint %d differs (%#x vs %#x)",
								name, seed, i, v.label, j, a[j], b[j])
						}
					}
				}
			}
		}
	}
}

// TestPerfectL1iUpperBounds checks the ordering metamorphic property: a
// perfect L1i (every fetch hits) upper-bounds the IPC of every real design —
// instruction prefetching can only approach it, never beat it.
func TestPerfectL1iUpperBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("ordering property needs a longer window than the race budget allows")
	}
	perfect := testOptions(prefetch.Catalog()[0], 1)
	perfect.MeasureCycles = 8192
	perfect.Strict = false
	perfect.Core = core.Config{PerfectL1i: true}
	pres, prep, err := Run(context.Background(), perfect)
	if err != nil {
		t.Fatal(err)
	}
	if !prep.Ok() {
		t.Fatalf("perfect-L1i run diverged:\n%s", prep)
	}
	bound := pres.M.IPC()
	if bound <= 0 {
		t.Fatalf("degenerate perfect-L1i IPC %v", bound)
	}
	for _, entry := range prefetch.Catalog() {
		o := testOptions(entry, 1)
		o.MeasureCycles = 8192
		o.Strict = false // same core config as the perfect run, minus PerfectL1i
		res, rep, err := Run(context.Background(), o)
		if err != nil {
			t.Fatalf("%s: %v", entry.Name, err)
		}
		if !rep.Ok() {
			t.Fatalf("%s diverged:\n%s", entry.Name, rep)
		}
		// Allow 1% slack for window-edge effects (instructions in flight at
		// the measurement boundary).
		if ipc := res.M.IPC(); ipc > bound*1.01 {
			t.Errorf("%s IPC %.4f exceeds perfect-L1i bound %.4f", entry.Name, ipc, bound)
		}
	}
}

// TestCheckpointResumeDifferentialTransparent proves checkpoint/resume is
// invisible to the differential harness: a run interrupted mid-measurement
// and resumed from its snapshot stays divergence-free (the oracle's walkers
// and the shim's lockstep position are part of the snapshot) and converges
// to the uninterrupted run's metrics and stream digests bit for bit.
func TestCheckpointResumeDifferentialTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint cadence needs a multi-thousand-cycle window")
	}
	entry := prefetch.Catalog()[10] // SN4L+Dis+BTB
	o := testOptions(entry, 2)
	// Checkpoints land on the 1024-cycle poll cadence: with warm 2048 and
	// measure 18000, snapshots at cycles 8192 and 16384 are both strictly
	// inside the measurement window.
	o.WarmCycles = 2048
	o.MeasureCycles = 18000
	o.CheckpointEvery = 8192
	o.CheckpointPath = filepath.Join(t.TempDir(), "difftest.ckpt")

	straightRes, straightRep, err := Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if !straightRep.Ok() {
		t.Fatalf("straight run diverged:\n%s", straightRep)
	}
	if _, err := os.Stat(o.CheckpointPath); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}

	resume := o
	resume.ResumeFrom = o.CheckpointPath
	resume.CheckpointEvery = 0
	resume.CheckpointPath = ""
	resumedRes, resumedRep, err := Run(context.Background(), resume)
	if err != nil {
		t.Fatal(err)
	}
	if !resumedRep.Ok() {
		t.Fatalf("resumed run diverged (oracle state not restored?):\n%s", resumedRep)
	}
	if resumedRes.M != straightRes.M {
		t.Fatalf("resumed metrics differ from uninterrupted run:\n got %+v\nwant %+v",
			resumedRes.M, straightRes.M)
	}
	if resumedRep.Retired != straightRep.Retired || resumedRep.Transitions != straightRep.Transitions {
		t.Fatalf("resumed shim coverage differs: retired %d/%d transitions %d/%d",
			resumedRep.Retired, straightRep.Retired, resumedRep.Transitions, straightRep.Transitions)
	}
	for i := range straightRep.DigestTrail {
		a, b := straightRep.DigestTrail[i], resumedRep.DigestTrail[i]
		if len(a) != len(b) {
			t.Fatalf("core %d digest trail length %d vs %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("core %d digest checkpoint %d differs after resume", i, j)
			}
		}
	}
}
