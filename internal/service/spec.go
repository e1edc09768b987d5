// Package service is the sweep-as-a-service layer: a long-running,
// multi-client job server (cmd/dncserved) that accepts sweep specifications
// over HTTP/JSON, executes them through the fault-tolerant runner on a
// bounded worker pool, and serves results from a persistent
// content-addressed cache. Because simulations are deterministic, the cell
// — one (workload, design, geometry, seed) point — is the unit of both
// deduplication and recovery: identical cells are served from the cache
// bit-exactly, and after a crash finished cells come back from the cache
// while in-flight ones re-run from cycle 0.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"dnc/internal/isa"
	"dnc/internal/prefetch"
	"dnc/internal/service/workerproto"
	"dnc/internal/sim/runner"
	"dnc/internal/workloads"
)

// Spec is a client-submitted sweep: the cross product of workload presets,
// catalog designs, and seeds at one machine geometry. Zero-valued fields
// take the paper's defaults (16 cores, 200K+200K cycle windows, seed 1,
// fixed-length encoding).
type Spec struct {
	// Workloads names presets from internal/workloads (e.g. "OLTP-DB-A").
	Workloads []string `json:"workloads"`
	// Designs names catalog entries from prefetch.Catalog (e.g. "SN4L+Dis+BTB").
	Designs []string `json:"designs"`
	// Mode is the instruction encoding: "fixed" (default) or "variable".
	Mode string `json:"mode,omitempty"`
	// Cores is the active core count, 1..16.
	Cores int `json:"cores,omitempty"`
	// WarmCycles and MeasureCycles bound the two simulation windows.
	WarmCycles    uint64 `json:"warm_cycles,omitempty"`
	MeasureCycles uint64 `json:"measure_cycles,omitempty"`
	// Seeds are the independent sample seeds; one cell per seed.
	Seeds []int64 `json:"seeds,omitempty"`
	// Priority orders the job queue: higher runs first, ties in
	// submission order. It does not participate in cell identity.
	Priority int `json:"priority,omitempty"`
}

// Spec limits: requests are untrusted input, so geometry and fan-out are
// bounded before any simulation state is allocated.
const (
	maxSpecCores  = 16        // the 4x4 mesh
	maxSpecCycles = 5_000_000 // per window
	maxSpecSeeds  = 64
)

// normalized returns a copy with defaults applied; validation and cell
// expansion both operate on the normalized form so that two specs differing
// only in explicitness of defaults produce identical cells.
func (s Spec) normalized() Spec {
	if s.Mode == "" {
		s.Mode = "fixed"
	}
	if s.Cores == 0 {
		s.Cores = 16
	}
	if s.WarmCycles == 0 {
		s.WarmCycles = 200_000
	}
	if s.MeasureCycles == 0 {
		s.MeasureCycles = 200_000
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{1}
	}
	return s
}

// validate checks a normalized spec against the workload presets, the
// design catalog and the limits. maxCells bounds the expansion (a server
// configuration, not a constant, so operators can size it to their fleet).
func (s Spec) validate(maxCells int) error {
	if len(s.Workloads) == 0 {
		return fmt.Errorf("spec: no workloads (known: %v)", workloads.Names)
	}
	if len(s.Designs) == 0 {
		return fmt.Errorf("spec: no designs")
	}
	for _, w := range s.Workloads {
		if !slices.Contains(workloads.Names, w) {
			return fmt.Errorf("spec: unknown workload %q (known: %v)", w, workloads.Names)
		}
	}
	for _, d := range s.Designs {
		if _, ok := prefetch.FindDesign(d); !ok {
			return fmt.Errorf("spec: unknown design %q", d)
		}
	}
	if s.Mode != "fixed" && s.Mode != "variable" {
		return fmt.Errorf("spec: mode %q, want \"fixed\" or \"variable\"", s.Mode)
	}
	if s.Cores < 1 || s.Cores > maxSpecCores {
		return fmt.Errorf("spec: cores = %d outside 1..%d", s.Cores, maxSpecCores)
	}
	if s.WarmCycles > maxSpecCycles || s.MeasureCycles > maxSpecCycles {
		return fmt.Errorf("spec: window cycles exceed the %d per-window limit", maxSpecCycles)
	}
	if len(s.Seeds) > maxSpecSeeds {
		return fmt.Errorf("spec: %d seeds exceed the %d limit", len(s.Seeds), maxSpecSeeds)
	}
	seen := make(map[int64]bool, len(s.Seeds))
	for _, sd := range s.Seeds {
		if seen[sd] {
			return fmt.Errorf("spec: duplicate seed %d", sd)
		}
		seen[sd] = true
	}
	if n := len(s.Workloads) * len(s.Designs) * len(s.Seeds); n > maxCells {
		return fmt.Errorf("spec: expands to %d cells, limit %d", n, maxCells)
	}
	return nil
}

// cells expands a normalized spec in deterministic workload-major order.
func (s Spec) cells() []cellSpec {
	mode := isa.Fixed
	if s.Mode == "variable" {
		mode = isa.Variable
	}
	out := make([]cellSpec, 0, len(s.Workloads)*len(s.Designs)*len(s.Seeds))
	for _, w := range s.Workloads {
		for _, d := range s.Designs {
			for _, seed := range s.Seeds {
				out = append(out, cellSpec{
					Workload: w, Design: d, Mode: mode, Cores: s.Cores,
					Warm: s.WarmCycles, Measure: s.MeasureCycles, Seed: seed,
				})
			}
		}
	}
	return out
}

// digest content-addresses the normalized spec minus priority (priority
// affects scheduling, not results). Used for human-traceable job IDs.
func (s Spec) digest() string {
	s.Priority = 0
	b, _ := json.Marshal(s)
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// cellSpec is one simulation point, shared with the worker plane: the wire
// protocol owns the type (and its Key/Digest content addressing and
// RunConfig construction) so the server and remote dncworker processes can
// never disagree on cell identity or on how a cell executes. See
// workerproto.CellSpec.
type cellSpec = workerproto.CellSpec

// ResultDigest content-addresses a result's canonical wire form. Two runs
// of the same cell are bit-exact (deterministic simulator), so their
// digests match; the chaos suite uses this to prove cache hits and
// crash-resumed completions are byte-identical to fresh runs.
func ResultDigest(r *runner.ResultJSON) string {
	b, err := json.Marshal(r)
	if err != nil {
		return "unmarshalable:" + err.Error()
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
