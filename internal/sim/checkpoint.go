package sim

import (
	"errors"
	"fmt"

	"dnc/internal/checkpoint"
)

// ErrTraceCheckpoint is returned when a trace-replay run requests
// checkpointing or resume: the trace reader's file position is not part of
// the snapshottable machine state, so only walker-driven runs (whose stream
// position is a seed plus a draw count) can checkpoint.
var ErrTraceCheckpoint = errors.New(
	"sim: checkpointing is not supported for trace-replay runs")

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

// componentState frames one component's snapshot for AuditError.State.
func componentState(snap func(*checkpoint.Encoder)) []byte {
	e := checkpoint.NewEncoder()
	snap(e)
	return e.Marshal()
}

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
				State:      componentState(c.Snapshot),
			})
		}
	}
	if errs := m.uncore.LLC.Audit(); len(errs) > 0 {
		out = append(out, &AuditError{
			Component:  "llc",
			Cycle:      cycle,
			Violations: errs,
			State:      componentState(m.uncore.LLC.Snapshot),
		})
	}
	if errs := m.uncore.Mesh.Audit(); len(errs) > 0 {
		out = append(out, &AuditError{
			Component:  "noc",
			Cycle:      cycle,
			Violations: errs,
			State:      componentState(m.uncore.Mesh.Snapshot),
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

// encode serialises the whole machine: a header identifying the
// configuration (so a snapshot cannot silently restore into a different
// experiment), the run position (window, cycles, watchdog counters), every
// core with its walker and design, and the shared uncore.
func (m *machine) encode() *checkpoint.Encoder {
	e := checkpoint.NewEncoder()
	e.Begin("machine")
	e.String(m.rc.Workload.Name)
	e.U8(uint8(m.rc.Workload.Mode))
	e.Int(m.rc.Workload.FootprintBytes)
	e.I64(m.rc.Workload.GenSeed)
	e.String(m.designs[0].Name())
	e.I64(m.rc.Seed)
	e.Int(m.rc.Cores)
	e.U64(m.rc.WarmCycles)
	e.U64(m.rc.MeasureCycles)
	e.U8(m.phase)
	e.U64(m.done)
	e.U64(m.watch.cycle)
	e.U64(m.watch.lastSum)
	e.U64(m.watch.lastAt)
	for i := range m.cores {
		m.walkers[i].Snapshot(e)
		m.cores[i].Snapshot(e)
	}
	m.uncore.LLC.Snapshot(e)
	m.uncore.Mesh.Snapshot(e)
	m.uncore.DRAM.Snapshot(e)
	e.End()
	return e
}

// StepBound returns the most committed instructions one core's stream can be
// asked for in a run of rc: FetchWidth per cycle of both windows. A snapshot
// whose walker claims a position beyond it is corrupt.
func (rc RunConfig) StepBound() uint64 {
	rc = applyDefaults(rc)
	return (rc.WarmCycles + rc.MeasureCycles) * uint64(rc.Core.FetchWidth)
}

// restoreFrom loads a snapshot file into the freshly built machine,
// verifying first that it was taken from an identical configuration.
func (m *machine) restoreFrom(path string) error {
	d, err := checkpoint.ReadFile(path)
	if err != nil {
		return fmt.Errorf("sim: reading snapshot %s: %w", path, err)
	}
	if err := m.load(d); err != nil {
		return fmt.Errorf("sim: snapshot %s: %w", path, err)
	}
	return nil
}

// load restores a framing-checked snapshot into the freshly built machine.
func (m *machine) load(d *checkpoint.Decoder) error {
	if err := d.Begin("machine"); err != nil {
		return err
	}
	if err := m.checkHeader(d); err != nil {
		return err
	}
	m.phase = d.U8()
	m.done = d.U64()
	m.watch.cycle = d.U64()
	m.watch.lastSum = d.U64()
	m.watch.lastAt = d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if m.phase > 1 {
		return fmt.Errorf("%w: phase %d out of range", checkpoint.ErrCorrupt, m.phase)
	}
	steps := m.rc.StepBound()
	for i := range m.cores {
		if err := m.walkers[i].Restore(d, steps); err != nil {
			return fmt.Errorf("walker %d: %w", i, err)
		}
		if err := m.cores[i].Restore(d); err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
	}
	if err := m.uncore.LLC.Restore(d); err != nil {
		return fmt.Errorf("llc: %w", err)
	}
	if err := m.uncore.Mesh.Restore(d); err != nil {
		return fmt.Errorf("noc: %w", err)
	}
	if err := m.uncore.DRAM.Restore(d); err != nil {
		return fmt.Errorf("dram: %w", err)
	}
	if err := d.End(); err != nil {
		return err
	}
	// Resume the checkpoint cadence from the restore point, and rebuild the
	// derived wake state (restored cores are all awake until their first
	// full Tick recomputes idleWake).
	m.lastCkpt = m.watch.cycle
	m.resetEngine()
	return nil
}

// checkHeader verifies the snapshot's identity fields against the machine's
// configuration. Snapshots restore into identically configured machines;
// they never reconfigure one.
func (m *machine) checkHeader(d *checkpoint.Decoder) error {
	name := d.String()
	mode := d.U8()
	footprint := d.Int()
	genSeed := d.I64()
	design := d.String()
	seed := d.I64()
	cores := d.Int()
	warm := d.U64()
	measure := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	mismatch := func(field string, got, want any) error {
		return fmt.Errorf("%w: snapshot %s is %v, machine expects %v",
			checkpoint.ErrCorrupt, field, got, want)
	}
	switch {
	case name != m.rc.Workload.Name:
		return mismatch("workload", name, m.rc.Workload.Name)
	case mode != uint8(m.rc.Workload.Mode):
		return mismatch("workload mode", mode, uint8(m.rc.Workload.Mode))
	case footprint != m.rc.Workload.FootprintBytes:
		return mismatch("workload footprint", footprint, m.rc.Workload.FootprintBytes)
	case genSeed != m.rc.Workload.GenSeed:
		return mismatch("workload generation seed", genSeed, m.rc.Workload.GenSeed)
	case design != m.designs[0].Name():
		return mismatch("design", design, m.designs[0].Name())
	case seed != m.rc.Seed:
		return mismatch("run seed", seed, m.rc.Seed)
	case cores != m.rc.Cores:
		return mismatch("core count", cores, m.rc.Cores)
	case warm != m.rc.WarmCycles:
		return mismatch("warm-up window", warm, m.rc.WarmCycles)
	case measure != m.rc.MeasureCycles:
		return mismatch("measurement window", measure, m.rc.MeasureCycles)
	}
	return nil
}
