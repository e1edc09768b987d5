package resultstore

import (
	"reflect"
	"testing"

	"dnc/internal/core"
	"dnc/internal/llc"
	"dnc/internal/obs"
	"dnc/internal/sim/runner"
	"dnc/internal/stats"
)

// TestSetResultCoversEveryCounter: every uint64 field of core.Metrics and
// llc.Stats must surface as a store column — by reflection, so a counter
// added to either struct is stored from the commit that adds it.
func TestSetResultCoversEveryCounter(t *testing.T) {
	r := &runner.ResultJSON{Workload: "w", Design: "d"}
	// Poison every counter with a distinct value via reflection.
	fill := func(v reflect.Value, base uint64) {
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Kind() == reflect.Uint64 {
				v.Field(i).SetUint(base + uint64(i))
			}
		}
	}
	fill(reflect.ValueOf(&r.M).Elem(), 1000)
	fill(reflect.ValueOf(&r.LLCStats).Elem(), 2000)
	r.NoCFlits, r.NoCQueued, r.DRAMQueued, r.StorageBits = 31, 32, 33, 34

	var c Cell
	c.SetResult(r)

	mt := reflect.TypeOf(core.Metrics{})
	for i := 0; i < mt.NumField(); i++ {
		name := "m." + mt.Field(i).Name
		if got, ok := c.Metrics[name]; !ok || got != 1000+uint64(i) {
			t.Errorf("metric %s = (%d, %v), want %d", name, got, ok, 1000+i)
		}
	}
	lt := reflect.TypeOf(llc.Stats{})
	for i := 0; i < lt.NumField(); i++ {
		name := "llc." + lt.Field(i).Name
		if got, ok := c.Metrics[name]; !ok || got != 2000+uint64(i) {
			t.Errorf("metric %s = (%d, %v), want %d", name, got, ok, 2000+i)
		}
	}
	for name, want := range map[string]uint64{
		"noc.flits": 31, "noc.queued": 32, "dram.queued": 33, "storage.bits": 34,
	} {
		if got := c.Metrics[name]; got != want {
			t.Errorf("metric %s = %d, want %d", name, got, want)
		}
	}
}

// TestSetResultObs: registry counters and histograms carry over; a result
// without Obs stores scalars only.
func TestSetResultObs(t *testing.T) {
	r := &runner.ResultJSON{
		Obs: &obs.RunObs{
			Counters: []stats.CounterValue{{Name: "mshr.highwater.core0", Value: 7}},
			Hists: []obs.HistSnapshot{{
				Name: "occ.rob", Bounds: []uint64{8, 16}, Counts: []uint64{1, 2, 3},
				N: 6, Sum: 60, Min: 4, Max: 30,
			}},
		},
	}
	var c Cell
	c.SetResult(r)
	if c.Metrics["ctr.mshr.highwater.core0"] != 7 {
		t.Errorf("counter column = %d, want 7", c.Metrics["ctr.mshr.highwater.core0"])
	}
	wantH := []Hist{{Name: "occ.rob", Bounds: []uint64{8, 16}, Counts: []uint64{1, 2, 3},
		N: 6, Sum: 60, Min: 4, Max: 30}}
	if !reflect.DeepEqual(c.Hists, wantH) {
		t.Errorf("Hists = %+v, want %+v", c.Hists, wantH)
	}

	// SetResult replaces prior state (a Cell can be reused for conversion).
	c.SetResult(&runner.ResultJSON{})
	if len(c.Hists) != 0 {
		t.Error("SetResult did not clear previous hists")
	}
	// And the converted cell round-trips through the store.
	c.Workload, c.Design, c.Mode, c.Cores = "w", "d", "fixed", 1
	got, err := decodeSegment(encodeSegment([]Cell{c}), CellOptions{WithHists: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0].Metrics, c.Metrics) {
		t.Error("converted cell metrics did not round-trip")
	}
}
