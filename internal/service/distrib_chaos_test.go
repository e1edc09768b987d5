package service

import (
	"context"
	"log/slog"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"

	"dnc/internal/service/worker"
	"dnc/internal/telemetry"
)

// ---- distributed chaos: SIGKILL one worker, freeze another, lose nothing ----
//
// The headline acceptance test for the worker plane: a sweep spread across
// real dncworker subprocesses survives one worker SIGKILLed mid-cell and
// one frozen (heartbeats without progress), completes with per-cell result
// digests bit-identical to local single-process execution, observably
// reassigns the dead and frozen workers' leases, and neither loses nor
// double-admits a single cell.

const (
	workerChildEnv       = "DNC_WORKER_CHAOS_CHILD"
	workerChildServerEnv = "DNC_WORKER_CHAOS_SERVER"
	workerChildNameEnv   = "DNC_WORKER_CHAOS_NAME"
	workerChildFreezeEnv = "DNC_WORKER_CHAOS_FREEZE"
	workerChildTimeout   = 2 * time.Minute
)

// TestChaosChildWorker is not a test: it is the dncworker process body
// re-executed by TestDistributedChaosSweep. A safety timer bounds its life
// in case the parent dies before killing it.
func TestChaosChildWorker(t *testing.T) {
	if os.Getenv(workerChildEnv) == "" {
		t.Skip("not a worker chaos child")
	}
	ctx, cancel := context.WithTimeout(context.Background(), workerChildTimeout)
	defer cancel()
	freeze := 0
	if os.Getenv(workerChildFreezeEnv) != "" {
		freeze = 1
	}
	err := worker.Run(ctx, worker.Options{
		Server:       os.Getenv(workerChildServerEnv),
		Name:         os.Getenv(workerChildNameEnv),
		Capacity:     1,
		PollInterval: 20 * time.Millisecond,
		FreezeAfter:  freeze,
		Log: slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug})).
			With("child", os.Getenv(workerChildNameEnv)),
	})
	t.Logf("[child %s] worker.Run: %v", os.Getenv(workerChildNameEnv), err)
}

// spawnChaosWorker re-execs the test binary as a dncworker subprocess.
func spawnChaosWorker(t *testing.T, base, name string, freeze bool) *exec.Cmd {
	t.Helper()
	child := exec.Command(os.Args[0], "-test.run=^TestChaosChildWorker$", "-test.v")
	env := append(os.Environ(),
		workerChildEnv+"=1",
		workerChildServerEnv+"="+base,
		workerChildNameEnv+"="+name,
	)
	if freeze {
		env = append(env, workerChildFreezeEnv+"=1")
	}
	child.Env = env
	child.Stdout, child.Stderr = os.Stderr, os.Stderr
	if err := child.Start(); err != nil {
		t.Fatalf("starting chaos worker %s: %v", name, err)
	}
	t.Cleanup(func() { child.Process.Kill() })
	go child.Wait() // reap whenever it dies
	return child
}

// leaseCount reports how many cells are currently leased to the named
// worker (in-package visibility into the lease table).
func leaseCount(d *dispatcher, name string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, w := range d.workers {
		if w.name == name {
			n += len(w.leases)
		}
	}
	return n
}

func TestDistributedChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test skipped in -short mode")
	}
	e := newTestEnv(t, func(c *Config) {
		c.LeaseTTL = 1 * time.Second
		c.LeaseMaxAge = 2500 * time.Millisecond
		c.LeaseBatchMax = 1 // one cell per lease call, spreading the sweep
	})

	victim := spawnChaosWorker(t, e.base, "victim", false)
	spawnChaosWorker(t, e.base, "frozen", true)
	spawnChaosWorker(t, e.base, "healthy", false)
	waitFor(t, "all three workers registered", func() bool {
		return e.srv.Stats().WorkersLive == 3
	})

	// Six cells, each a visible moment of simulation, so the SIGKILL lands
	// mid-cell and the frozen worker wedges while holding real work.
	spec := Spec{
		Workloads:     []string{"Web-Frontend"},
		Designs:       []string{"baseline", "NL", "N2L"},
		Cores:         2,
		WarmCycles:    12_000,
		MeasureCycles: 12_000,
		Seeds:         []int64{1, 2},
	}
	want := localDigests(t, spec)
	js := e.submit(spec)

	// SIGKILL the victim the moment it holds a lease: no drain, no
	// completion upload, a cell dies mid-simulation.
	waitFor(t, "victim holding a lease", func() bool {
		return leaseCount(e.srv.dispatch, "victim") >= 1
	})
	if err := victim.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL victim: %v", err)
	}

	fin := e.waitJob(js.ID)
	if fin.State != JobDone {
		t.Fatalf("job state %s (%v), want done", fin.State, fin.Error)
	}
	checkOutcomes(t, e, js.ID, want) // zero lost; all bit-identical to local runs

	st := e.srv.Stats()
	if st.WorkersExpired < 1 {
		t.Fatalf("WorkersExpired = %d: the SIGKILLed worker was never reaped", st.WorkersExpired)
	}
	if st.Reassigned < 1 {
		t.Fatalf("Reassigned = %d: no lease was observably reassigned", st.Reassigned)
	}
	if st.RemoteAdmitted > uint64(len(want)) {
		t.Fatalf("RemoteAdmitted = %d > %d cells: a cell was double-admitted", st.RemoteAdmitted, len(want))
	}
	t.Logf("distributed chaos: admitted=%d dup=%d rejected=%d reassigned=%d expired=%d",
		st.RemoteAdmitted, st.RemoteDuplicates, st.RemoteRejected, st.Reassigned, st.WorkersExpired)

	// ---- telemetry acceptance: the chaos run leaves a coherent timeline ----
	// Every admitted cell has a complete span chain with conserved phases;
	// reassigned cells show the revoked attempt AND its successor.
	snap := checkTraceConservation(t, e, js.ID, len(want))
	revokedAttempts := 0
	for _, c := range snap.Cells {
		if c.Outcome != "admitted" {
			t.Fatalf("cell %s outcome %q, want admitted", c.SpanID, c.Outcome)
		}
		for i, a := range c.Attempts {
			if a.Outcome == "revoked" {
				revokedAttempts++
				if i == len(c.Attempts)-1 {
					t.Fatalf("cell %s: revoked attempt %d has no successor — the reassignment was not traced", c.SpanID, a.N)
				}
			}
		}
	}
	if revokedAttempts < 1 {
		t.Fatalf("stats report %d reassignments but no revoked attempt appears in the trace", st.Reassigned)
	}
	fetchPerfetto(t, e, js.ID)

	// /metrics after the dust settles: lints clean, conserves cells, and
	// serves every Server.Stats field from the same source.
	m, body := checkMetricsMatchStats(t, e)
	if errs := telemetry.Lint(body); len(errs) != 0 {
		t.Fatalf("exposition lint after chaos: %v", errs)
	}
	if got := m["dnc_cells_admitted_total"] + m["dnc_cells_deduped_total"] + m["dnc_cells_dead_lettered_total"]; got != float64(len(want)) {
		t.Fatalf("admitted+deduped+dead = %v, want %d (a cell was lost or double-counted)", got, len(want))
	}
}
