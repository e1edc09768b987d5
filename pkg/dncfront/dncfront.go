// Package dncfront is the public API of the frontend-prefetching library:
// a reproduction of "Divide and Conquer Frontend Bottleneck" (Ansari,
// Lotfi-Kamran, Sarbazi-Azad; ISCA 2020).
//
// The package wraps the internal simulator behind a small surface:
//
//   - Workloads lists the seven calibrated server-workload models; Workload
//     returns one preset, and WorkloadParams can be built directly for
//     custom workloads.
//   - NewDesign constructs any evaluated frontend design by name — the
//     paper's SN4L+Dis+BTB and its components, the sequential family, and
//     the Confluence/Boomerang/Shotgun competitors.
//   - Run simulates a workload under a design on a 16-tile CMP and returns
//     measured metrics; Compare also runs the no-prefetch baseline and
//     derives speedup, miss coverage, FSCR, and traffic ratios.
//
// See examples/ for runnable walk-throughs and cmd/dncbench for the full
// paper evaluation.
package dncfront

import (
	"fmt"
	"sort"

	wl "dnc/internal/cfg"
	"dnc/internal/core"
	"dnc/internal/isa"
	"dnc/internal/prefetch"
	"dnc/internal/sim"
	"dnc/internal/workloads"
)

// WorkloadParams configures a synthetic server workload; see the field
// documentation in the underlying type for every knob.
type WorkloadParams = wl.Params

// Metrics are the per-run measurement counters.
type Metrics = core.Metrics

// Result is one simulation outcome.
type Result = sim.Result

// Design is a pluggable frontend configuration (BTB organization plus
// prefetcher). A design that wants the retired instruction stream also
// defines OnRetire(isa.Inst, bool, isa.Addr), the optional
// prefetch.Retirer; the core calls it for every retirement, in order. A
// design with an L1i prefetch buffer declares its size with
// BufferEntries() int, the optional prefetch.Bufferer (Shotgun's 64).
type Design = prefetch.Design

// ISA modes for WorkloadParams.Mode.
const (
	FixedLength    = isa.Fixed
	VariableLength = isa.Variable
)

// Workloads returns the names of the seven calibrated workload presets, in
// the paper's reporting order.
func Workloads() []string {
	out := make([]string, len(workloads.Names))
	copy(out, workloads.Names)
	return out
}

// Workload returns a preset workload's parameters in fixed-length mode.
func Workload(name string) WorkloadParams {
	return workloads.Params(name, isa.Fixed)
}

// Designs returns the available design names (prefetch.Catalog), sorted.
func Designs() []string {
	var out []string
	for _, e := range prefetch.Catalog() {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// catalogEntry returns the catalog entry of a named design.
func catalogEntry(name string) (prefetch.CatalogEntry, error) {
	e, ok := prefetch.FindDesign(name)
	if !ok {
		return e, fmt.Errorf("dncfront: unknown design %q (have %v)", name, Designs())
	}
	return e, nil
}

// NewDesign constructs a fresh instance of a named design. One instance
// drives one core; construct one per simulated core.
func NewDesign(name string) (Design, error) {
	e, err := catalogEntry(name)
	if err != nil {
		return nil, err
	}
	return e.New(), nil
}

// Options configure a simulation run.
type Options struct {
	// Cores is the number of active cores on the 4x4 mesh (default 16).
	Cores int
	// WarmCycles and MeasureCycles set the two windows (default 200K each,
	// the paper's methodology).
	WarmCycles, MeasureCycles uint64
	// Seed selects the measurement sample (default 1).
	Seed int64
}

func (o Options) fill() Options {
	if o.Cores == 0 {
		o.Cores = 16
	}
	if o.WarmCycles == 0 {
		o.WarmCycles = 200_000
	}
	if o.MeasureCycles == 0 {
		o.MeasureCycles = 200_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Run simulates the workload under the named design.
func Run(params WorkloadParams, name string, o Options) (Result, error) {
	e, err := catalogEntry(name)
	if err != nil {
		return Result{}, err
	}
	o = o.fill()
	return sim.Run(sim.RunConfig{
		Workload:      params,
		NewDesign:     e.New,
		Cores:         o.Cores,
		WarmCycles:    o.WarmCycles,
		MeasureCycles: o.MeasureCycles,
		Seed:          o.Seed,
	}), nil
}

// Comparison holds a design's result with baseline-derived metrics.
type Comparison struct {
	Result   Result
	Baseline Result
	// Speedup is IPC relative to the no-prefetch baseline.
	Speedup float64
	// MissCoverage is the fraction of baseline L1i misses eliminated.
	MissCoverage float64
	// SeqMissCoverage restricts coverage to sequential misses.
	SeqMissCoverage float64
	// FSCR is the frontend stall cycle reduction.
	FSCR float64
	// BandwidthRatio is L1i external traffic relative to the baseline.
	BandwidthRatio float64
	// LookupRatio is L1i tag lookups relative to the baseline.
	LookupRatio float64
}

// Compare runs both the design and the baseline and derives the paper's
// cross-run metrics.
func Compare(params WorkloadParams, design string, o Options) (Comparison, error) {
	r, err := Run(params, design, o)
	if err != nil {
		return Comparison{}, err
	}
	base, err := Run(params, "baseline", o)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{
		Result:          r,
		Baseline:        base,
		Speedup:         sim.Speedup(r, base),
		MissCoverage:    sim.MissCoverage(r, base),
		SeqMissCoverage: sim.SeqMissCoverage(r, base),
		FSCR:            sim.FSCR(r, base),
		BandwidthRatio:  sim.BandwidthRatio(r, base),
		LookupRatio:     sim.LookupRatio(r, base),
	}, nil
}
