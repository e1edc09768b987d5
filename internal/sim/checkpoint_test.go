package sim

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	wl "dnc/internal/cfg"
	"dnc/internal/isa"
	"dnc/internal/prefetch"
)

// fingerprint marshals a Result — all of it defines run equivalence, the
// designs' own probe counters included.
func fingerprint(t *testing.T, r Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshalling result: %v", err)
	}
	return string(b)
}

func checkpointConfig(t *testing.T, nd func() prefetch.Design) RunConfig {
	rc := checkedConfig()
	if nd != nil {
		rc.NewDesign = nd
	}
	// Window sizes chosen so the last checkpoint (cadence 8192, aligned to
	// the 1024-cycle poll) lands strictly inside the measurement window:
	// checkpoints at 8192, 16384, 24576, 32768 of 40000 total cycles.
	rc.WarmCycles = 20_000
	rc.MeasureCycles = 20_000
	rc.CheckpointEvery = 8192
	rc.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
	return rc
}

// TestCheckpointResumeBitExact is the headline robustness property: a run
// that is interrupted and resumed from its last snapshot produces a result
// byte-identical to the same run executed without interruption.
func TestCheckpointResumeBitExact(t *testing.T) {
	designs := map[string]func() prefetch.Design{
		"baseline": func() prefetch.Design { return prefetch.NewBaseline(2048) },
		"proactive": func() prefetch.Design {
			return prefetch.NewProactive(prefetch.DefaultProactiveConfig())
		},
		"boomerang": func() prefetch.Design { return prefetch.NewBoomerang(prefetch.BoomerangConfig{}) },
	}
	for name, nd := range designs {
		t.Run(name, func(t *testing.T) {
			rc := checkpointConfig(t, nd)
			straight, err := RunChecked(context.Background(), rc)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(rc.CheckpointPath); err != nil {
				t.Fatalf("no checkpoint written: %v", err)
			}

			// Resume from the last snapshot (mid-measurement) and finish the
			// run a second time; the two results must match bit for bit.
			resume := rc
			resume.ResumeFrom = rc.CheckpointPath
			resume.CheckpointEvery = 0
			resume.CheckpointPath = ""
			resumed, err := RunChecked(context.Background(), resume)
			if err != nil {
				t.Fatal(err)
			}
			got, want := fingerprint(t, resumed), fingerprint(t, straight)
			if got != want {
				t.Errorf("resumed run diverged from uninterrupted run:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestCheckpointResumeAfterCancel exercises the crash-shaped path: the run is
// killed mid-flight by context cancellation, then restarted from its last
// snapshot, and must still converge to the uninterrupted result.
func TestCheckpointResumeAfterCancel(t *testing.T) {
	rc := checkpointConfig(t, nil)
	straight, err := RunChecked(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}

	interrupted := rc
	interrupted.CheckpointPath = filepath.Join(t.TempDir(), "interrupted.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// Kill the run as soon as its first snapshot lands; where exactly the
		// abort strikes after that is the nondeterminism being exercised.
		for {
			if _, serr := os.Stat(interrupted.CheckpointPath); serr == nil {
				cancel()
				return
			}
			select {
			case <-ctx.Done():
				return
			default:
			}
		}
	}()
	if _, err := RunChecked(ctx, interrupted); err == nil {
		// The race let the run finish; that still leaves a valid snapshot.
		t.Log("cancellation lost the race; run completed")
	}
	if _, err := os.Stat(interrupted.CheckpointPath); err != nil {
		t.Fatalf("no snapshot survived the interruption: %v", err)
	}

	resume := rc
	resume.ResumeFrom = interrupted.CheckpointPath
	resume.CheckpointEvery = 0
	resume.CheckpointPath = ""
	resumed, err := RunChecked(context.Background(), resume)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, resumed), fingerprint(t, straight); got != want {
		t.Errorf("resume after cancellation diverged from uninterrupted run")
	}
}

// TestRunDeterminism is the regression guard for the whole machine model:
// two runs of the same configuration must produce byte-identical results.
// Any nondeterminism (map iteration reaching timing, unseeded randomness)
// breaks both this and checkpoint resume.
func TestRunDeterminism(t *testing.T) {
	rc := checkedConfig()
	a, err := RunChecked(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChecked(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, a) != fingerprint(t, b) {
		t.Error("identical configurations produced different results")
	}
}

// TestSnapshotEncodingDeterministic guards the byte-determinism of the
// snapshot encoder itself (sorted map iteration everywhere): two machines
// built and run identically must serialise identically.
func TestSnapshotEncodingDeterministic(t *testing.T) {
	build := func() []byte {
		rc := applyDefaults(checkedConfig())
		m, err := buildMachine(rc, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer m.close()
		if err := m.runPhase(context.Background(), 5000); err != nil {
			t.Fatal(err)
		}
		return m.encode()
	}
	a, b := build(), build()
	if string(a) != string(b) {
		t.Error("identical machines serialised to different bytes")
	}
}

// TestAuditCleanOnHealthyRun checks the auditor itself: a snapshot of a
// healthy run must restore and audit with zero violations.
func TestAuditCleanOnHealthyRun(t *testing.T) {
	rc := checkpointConfig(t, nil)
	if _, err := RunChecked(context.Background(), rc); err != nil {
		t.Fatal(err)
	}
	violations, err := Audit(rc, rc.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("healthy snapshot audited dirty: %v", errors.Join(func() []error {
			var es []error
			for _, v := range violations {
				es = append(es, v)
			}
			return es
		}()...))
	}
}

// TestAuditCatchesInjectedMSHRLeak seeds structural corruption — an MSHR
// entry whose fill is long overdue, i.e. a leaked slot that fill processing
// can never free — and checks the auditor reports it against the right
// component with its state attached.
func TestAuditCatchesInjectedMSHRLeak(t *testing.T) {
	rc := applyDefaults(checkedConfig())
	m, err := buildMachine(rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	if err := m.runPhase(context.Background(), 5000); err != nil {
		t.Fatal(err)
	}
	if err := m.auditNow(); err != nil {
		t.Fatalf("machine dirty before injection: %v", err)
	}

	// Inject: an in-flight miss that should have filled thousands of cycles
	// ago. A correct machine frees every due entry at the next tick, so an
	// overdue entry can only mean leaked bookkeeping.
	m.cores[0].MSHRs().AllocDemand(isa.BlockID(0xDEAD0), m.watch.cycle-2000, m.watch.cycle-1000)

	aerr := m.auditNow()
	if aerr == nil {
		t.Fatal("auditor missed the injected MSHR leak")
	}
	var audit *AuditError
	if !errors.As(aerr, &audit) {
		t.Fatalf("want *AuditError in chain, got %v", aerr)
	}
	if audit.Component != "core0" {
		t.Errorf("leak attributed to %q, want core0", audit.Component)
	}
	if len(audit.State) == 0 {
		t.Error("no component state attached to the violation")
	}
	if audit.Cycle != m.watch.cycle {
		t.Errorf("violation stamped at cycle %d, want %d", audit.Cycle, m.watch.cycle)
	}
}

// TestCheckpointRejectsInjectedRuns pins the typed refusal: injected runs
// cannot checkpoint or resume (the StreamWrapper is outside the snapshot),
// even when the wrapper leaves every stream unchanged.
func TestCheckpointRejectsInjectedRuns(t *testing.T) {
	dir := t.TempDir()
	identity := func(_ int, s wl.Stream) wl.Stream { return s }
	rc := checkedConfig()
	rc.CheckpointEvery = 4096
	rc.CheckpointPath = filepath.Join(dir, "t.ckpt")
	_, err := RunInjected(context.Background(), rc, identity)
	if !errors.Is(err, ErrInjectedCheckpoint) {
		t.Fatalf("want ErrInjectedCheckpoint, got %v", err)
	}

	rc = checkedConfig()
	rc.ResumeFrom = filepath.Join(dir, "missing.ckpt")
	_, err = RunInjected(context.Background(), rc, identity)
	if !errors.Is(err, ErrInjectedCheckpoint) {
		t.Fatalf("want ErrInjectedCheckpoint for resume, got %v", err)
	}
}

// TestResumeRejectsMismatchedConfig checks the snapshot header: a snapshot
// must not restore into a machine with a different workload, design, seed,
// or window geometry.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	rc := checkpointConfig(t, nil)
	if _, err := RunChecked(context.Background(), rc); err != nil {
		t.Fatal(err)
	}

	mutations := map[string]func(*RunConfig){
		"seed":     func(c *RunConfig) { c.Seed++ },
		"cores":    func(c *RunConfig) { c.Cores-- },
		"workload": func(c *RunConfig) { c.Workload.GenSeed++ },
		"window":   func(c *RunConfig) { c.MeasureCycles += 1024 },
		"design": func(c *RunConfig) {
			c.NewDesign = func() prefetch.Design { return prefetch.NewBoomerang(prefetch.BoomerangConfig{}) }
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			bad := rc
			bad.CheckpointEvery = 0
			bad.CheckpointPath = ""
			bad.ResumeFrom = rc.CheckpointPath
			mutate(&bad)
			if _, err := RunChecked(context.Background(), bad); err == nil {
				t.Errorf("snapshot restored into a machine with mutated %s", name)
			}
		})
	}
}

// TestLivelockDumpsSnapshot checks that the watchdog leaves a post-mortem
// snapshot behind when it aborts a stuck run.
func TestLivelockDumpsSnapshot(t *testing.T) {
	rc := checkedConfig()
	rc.NewDesign = newStuck
	rc.WatchdogCycles = 4000
	rc.CheckpointEvery = 1 << 30 // never on cadence; only the livelock dump
	rc.CheckpointPath = filepath.Join(t.TempDir(), "stuck.ckpt")
	_, err := RunChecked(context.Background(), rc)
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("want livelock, got %v", err)
	}
	dump := rc.CheckpointPath + ".livelock"
	if _, serr := os.Stat(dump); serr != nil {
		t.Fatalf("no livelock snapshot dumped: %v", serr)
	}
	// The dump must be a loadable, auditable snapshot.
	violations, aerr := Audit(rc, dump)
	if aerr != nil {
		t.Fatalf("livelock snapshot not loadable: %v", aerr)
	}
	if len(violations) != 0 {
		t.Errorf("stuck-but-consistent machine audited dirty: %v", violations[0])
	}
}
