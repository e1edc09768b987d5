package runner

import (
	"encoding/json"
	"reflect"
	"testing"

	"dnc/internal/core"
	"dnc/internal/obs"
	"dnc/internal/sim"
	"dnc/internal/stats"
)

// resultJSONExcluded lists the sim.Result fields deliberately absent from
// the wire form, with the reason. Everything else MUST round-trip: the
// journal, the dncserved cache digest, and the column store all read
// results through ResultJSON, so a field missing here is silently missing
// from every durable artifact.
var resultJSONExcluded = map[string]string{
	"Probes":       "design-internal counters only Fig01/Fig12 read; the wire form, its digests and bytes per cell predate them",
	"Shards":       "depends on the simulating host's idle CPUs; in the wire form two workers would upload different digests for one cell",
	"LLCOccupancy": "a diagnostic dncsim prints; the wire form, its digests and bytes per cell predate it, and a run resumed inside its window cannot know the start",
	"TickedCycles": "the engine's own work, not simulated state: it differs between engines and between a straight and a resumed run of one cell",
}

// TestResultJSONCoversEveryResultField walks sim.Result by reflection:
// every field must either exist in ResultJSON (same name, same type) or be
// explicitly excluded above. Adding a field to sim.Result without
// extending the wire form fails this test at the commit that adds it.
func TestResultJSONCoversEveryResultField(t *testing.T) {
	rt := reflect.TypeOf(sim.Result{})
	jt := reflect.TypeOf(ResultJSON{})
	jf := map[string]reflect.Type{}
	for i := 0; i < jt.NumField(); i++ {
		f := jt.Field(i)
		jf[f.Name] = f.Type
	}
	// ResultJSON renames LLCStats's JSON key but keeps the field name; map
	// any future alias here if a rename is ever needed.
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if _, excluded := resultJSONExcluded[f.Name]; excluded {
			if _, present := jf[f.Name]; present {
				t.Errorf("sim.Result.%s is both excluded and present in ResultJSON; drop it from the exclusion list", f.Name)
			}
			continue
		}
		typ, ok := jf[f.Name]
		if !ok {
			t.Errorf("sim.Result.%s is missing from ResultJSON: add it to the wire form (and the store conversion) or document the exclusion", f.Name)
			continue
		}
		if typ != f.Type {
			t.Errorf("ResultJSON.%s has type %v, sim.Result has %v", f.Name, typ, f.Type)
		}
	}
	// The inverse: ResultJSON must not carry fields sim.Result lacks (a
	// stale field would deserialize to garbage silently).
	rf := map[string]bool{}
	for i := 0; i < rt.NumField(); i++ {
		rf[rt.Field(i).Name] = true
	}
	for name := range jf {
		if !rf[name] {
			t.Errorf("ResultJSON.%s has no counterpart in sim.Result", name)
		}
	}
}

// TestResultJSONRoundTripExhaustive: a sim.Result with every non-excluded
// field populated (counters via reflection, so new counters join
// automatically) must survive Result → ResultJSON → JSON → ResultJSON →
// Result unchanged.
func TestResultJSONRoundTripExhaustive(t *testing.T) {
	fill := func(v reflect.Value, base uint64) {
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Kind() == reflect.Uint64 {
				v.Field(i).SetUint(base + uint64(i))
			}
		}
	}
	in := sim.Result{
		Workload:    "w",
		Design:      "d",
		PerCore:     make([]core.Metrics, 2),
		NoCFlits:    41,
		NoCQueued:   42,
		DRAMQueued:  43,
		StorageBits: 44,
		Obs: &obs.RunObs{
			Hists: []obs.HistSnapshot{{Name: "h", Bounds: []uint64{1, 2}, Counts: []uint64{3, 4, 5},
				N: 12, Sum: 30, Min: 1, Max: 9}},
			Counters:     []stats.CounterValue{{Name: "c", Value: 6}},
			TraceTotal:   7,
			TraceDropped: 8,
		},
	}
	fill(reflect.ValueOf(&in.M).Elem(), 100)
	fill(reflect.ValueOf(&in.PerCore[0]).Elem(), 200)
	fill(reflect.ValueOf(&in.PerCore[1]).Elem(), 300)
	fill(reflect.ValueOf(&in.LLCStats).Elem(), 400)

	raw, err := json.Marshal(NewResultJSON(in))
	if err != nil {
		t.Fatal(err)
	}
	var decoded ResultJSON
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	got := decoded.Result()
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip diverged:\ngot  %+v\nwant %+v", got, in)
	}
}
