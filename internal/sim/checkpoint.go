package sim

import (
	"errors"
	"fmt"
	"os"

	"dnc/internal/checkpoint"
	"dnc/internal/core"
)

// ErrInjectedCheckpoint is returned when an injected run (RunInjected)
// requests checkpointing or resume: a snapshot records each walker's seed and
// draw count, not what the StreamWrapper does to the stream, so only
// unwrapped runs can checkpoint.
var ErrInjectedCheckpoint = errors.New(
	"sim: checkpointing is not supported for injected runs")

// AuditError reports the structural invariant violations found in one
// component of the machine, with the component's own snapshot attached so a
// violation can be triaged offline without re-running the simulation.
type AuditError struct {
	// Component names the offending component ("core3", "llc", "noc").
	Component string
	// Cycle is the global machine cycle at which the audit ran.
	Cycle uint64
	// Violations are the individual invariant failures.
	Violations []error
	// State is the component's snapshot (checkpoint framing) at the moment
	// of the violation.
	State []byte
}

// Error implements error.
func (e *AuditError) Error() string {
	msg := fmt.Sprintf("sim: audit of %s at cycle %d found %d violation(s)",
		e.Component, e.Cycle, len(e.Violations))
	for _, v := range e.Violations {
		msg += "\n  " + v.Error()
	}
	return msg
}

// Unwrap exposes the violations for errors.Is/As.
func (e *AuditError) Unwrap() []error { return e.Violations }

// audit sweeps the machine's structural invariants: per-core checks (ROB
// conservation, prefetch-buffer bounds and exclusivity, MSHR occupancy and
// leak detection), the DV-LLC footprint invariants, and NoC counter
// consistency. It returns one AuditError per offending component.
func (m *machine) audit() []*AuditError {
	var out []*AuditError
	cycle := m.watch.cycle
	for i, c := range m.cores {
		if errs := c.Audit(); len(errs) > 0 {
			out = append(out, &AuditError{
				Component:  fmt.Sprintf("core%d", i),
				Cycle:      cycle,
				Violations: errs,
				State:      checkpoint.Save(nil, c.State),
			})
		}
	}
	if errs := m.uncore.LLC.Audit(); len(errs) > 0 {
		out = append(out, &AuditError{
			Component:  "llc",
			Cycle:      cycle,
			Violations: errs,
			State:      checkpoint.Save(nil, m.uncore.LLC.State),
		})
	}
	if errs := m.uncore.Mesh.Audit(); len(errs) > 0 {
		out = append(out, &AuditError{
			Component:  "noc",
			Cycle:      cycle,
			Violations: errs,
			State:      checkpoint.Save(nil, m.uncore.Mesh.State),
		})
	}
	return out
}

// auditNow runs the audit and folds any violations into a single error.
func (m *machine) auditNow() error {
	found := m.audit()
	if len(found) == 0 {
		return nil
	}
	errs := make([]error, len(found))
	for i, a := range found {
		errs[i] = a
	}
	return errors.Join(errs...)
}

// Audit restores the snapshot at snapshotPath into a freshly built machine
// for rc and sweeps the structural invariant auditor over the restored
// state. It returns one AuditError per offending component (empty when the
// snapshot is structurally sound) and a hard error when the snapshot cannot
// be loaded at all (corrupt file, configuration mismatch).
func Audit(rc RunConfig, snapshotPath string) ([]*AuditError, error) {
	rc = applyDefaults(rc)
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	m, err := buildMachine(rc, nil)
	if err != nil {
		return nil, err
	}
	defer m.close()
	if err := m.restoreFrom(snapshotPath); err != nil {
		return nil, err
	}
	return m.audit(), nil
}

// state walks the whole machine: a header identifying the configuration
// (so a snapshot cannot silently restore into a different experiment —
// snapshots restore into identically configured machines; they never
// reconfigure one), the run position (window, cycles, watchdog counters),
// every core with its walker and design, and the shared uncore. It returns
// a load's first error under the name of the component it arose in; saving
// cannot fail.
func (m *machine) state(c *checkpoint.Codec) error {
	c.Begin("machine")
	w := &m.rc.Workload
	checkpoint.Same(c, "workload", w.Name, c.String)
	checkpoint.Same(c, "workload mode", uint8(w.Mode), c.U8)
	checkpoint.Same(c, "workload footprint", w.FootprintBytes, c.Int)
	checkpoint.Same(c, "workload generation seed", w.GenSeed, c.I64)
	checkpoint.Same(c, "design", m.designs[0].Name(), c.String)
	checkpoint.Same(c, "run seed", m.rc.Seed, c.I64)
	checkpoint.Same(c, "core count", m.rc.Cores, c.Int)
	checkpoint.Same(c, "warm-up window", m.rc.WarmCycles, c.U64)
	checkpoint.Same(c, "measurement window", m.rc.MeasureCycles, c.U64)
	c.U8(&m.phase)
	c.U64(&m.done)
	c.U64(&m.watch.cycle)
	c.U64(&m.watch.lastSum)
	c.U64(&m.watch.lastAt)
	if c.Loading() && c.Err() == nil && m.phase > 1 {
		c.Corrupt("phase %d out of range", m.phase)
	}
	if err := c.Err(); err != nil {
		return err
	}
	steps := m.rc.StepBound()
	for i := range m.cores {
		m.walkers[i].State(c, steps)
		if err := c.Err(); err != nil {
			return fmt.Errorf("walker %d: %w", i, err)
		}
		m.cores[i].State(c)
		if err := c.Err(); err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
	}
	m.uncore.LLC.State(c)
	if err := c.Err(); err != nil {
		return fmt.Errorf("llc: %w", err)
	}
	m.uncore.Mesh.State(c)
	if err := c.Err(); err != nil {
		return fmt.Errorf("noc: %w", err)
	}
	m.uncore.DRAM.State(c)
	if err := c.Err(); err != nil {
		return fmt.Errorf("dram: %w", err)
	}
	c.End()
	return c.Err()
}

// StepBound returns the most committed instructions one core's stream can be
// asked for in a run of rc: FetchWidth per cycle of both windows. A snapshot
// whose walker claims a position beyond it is corrupt.
func (rc RunConfig) StepBound() uint64 {
	rc = applyDefaults(rc)
	return (rc.WarmCycles + rc.MeasureCycles) * core.FetchWidth
}

// encode saves the whole machine into the buffer its cadence snapshots
// reuse: the returned bytes are valid until the next encode.
func (m *machine) encode() []byte {
	m.snap = checkpoint.Save(m.snap, func(c *checkpoint.Codec) { _ = m.state(c) }) // saving cannot fail
	return m.snap
}

// restoreFrom loads a snapshot file into the freshly built machine,
// verifying first that it was taken from an identical configuration.
func (m *machine) restoreFrom(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("sim: reading snapshot %s: %w", path, err)
	}
	if err := m.load(data); err != nil {
		return fmt.Errorf("sim: snapshot %s: %w", path, err)
	}
	return nil
}

// load restores a snapshot into the freshly built machine. A failure of the
// walk is named by the component it arose in ("walker 3: ...").
func (m *machine) load(data []byte) error {
	var walkErr error
	if err := checkpoint.Load(data, func(c *checkpoint.Codec) { walkErr = m.state(c) }); err != nil {
		if walkErr != nil {
			return walkErr
		}
		return err
	}
	// Resume the checkpoint cadence from the restore point, and rebuild the
	// derived wake state (restored cores are all awake until their first
	// full Tick recomputes idleWake).
	m.lastCkpt = m.watch.cycle
	m.resetEngine()
	return nil
}
