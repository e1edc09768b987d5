package resultstore

import (
	"reflect"

	"dnc/internal/sim/runner"
)

// SetResult fills the cell's measurement fields (Metrics, Hists)
// from a journaled result. The identity tags are the caller's: the result
// wire form carries workload and design but not the sweep coordinates
// (mode, cores, windows, seed), which live in the cell spec or bench plan.
//
// Scalar columns are named by origin:
//
//	m.<Field>     aggregate core.Metrics counter (m.Retired, m.Cycles, …)
//	llc.<Field>   llc.Stats counter
//	noc.flits / noc.queued / dram.queued / storage.bits   uncore scalars
//	ctr.<name>    obs registry counter (mshr.highwater.core0, …)
//
// The metric set is produced by reflection over the counter structs, so a
// counter added to core.Metrics or llc.Stats becomes a store column in the
// same commit — no second registration site to forget (the runner's
// field-coverage test enforces the same property for the wire form
// itself). Per-core metric breakdowns are deliberately not stored: the
// store answers cross-sweep aggregate queries, and per-core drill-down
// stays with the journal, which keeps full fidelity.
func (c *Cell) SetResult(r *runner.ResultJSON) {
	m := make(map[string]uint64, 48)
	addUintFields(m, "m.", reflect.ValueOf(r.M))
	addUintFields(m, "llc.", reflect.ValueOf(r.LLCStats))
	m["noc.flits"] = r.NoCFlits
	m["noc.queued"] = r.NoCQueued
	m["dram.queued"] = r.DRAMQueued
	m["storage.bits"] = uint64(r.StorageBits)

	c.Hists = nil
	if r.Obs != nil {
		for _, cv := range r.Obs.Counters {
			m["ctr."+cv.Name] = cv.Value
		}
		for _, h := range r.Obs.Hists {
			c.Hists = append(c.Hists, Hist{
				Name:   h.Name,
				Bounds: h.Bounds,
				Counts: h.Counts,
				N:      h.N,
				Sum:    h.Sum,
				Min:    h.Min,
				Max:    h.Max,
			})
		}
	}
	c.Metrics = m
}

// addUintFields adds every uint64 field of a flat counter struct as
// prefix+FieldName.
func addUintFields(dst map[string]uint64, prefix string, v reflect.Value) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type.Kind() == reflect.Uint64 {
			dst[prefix+f.Name] = v.Field(i).Uint()
		}
	}
}
