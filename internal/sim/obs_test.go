package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"dnc/internal/obs"
	"dnc/internal/prefetch"
)

// obsRun runs the small workload with the observability layer on.
func obsRun(t *testing.T, oc obs.Config) Result {
	t.Helper()
	return Run(RunConfig{
		Workload: smallWorkload(),
		NewDesign: func() prefetch.Design {
			return prefetch.NewProactive(prefetch.DefaultProactiveConfig())
		},
		Cores:         2,
		WarmCycles:    30_000,
		MeasureCycles: 30_000,
		Seed:          1,
		Obs:           &oc,
	})
}

func TestObsDisabledByDefault(t *testing.T) {
	r := quickRun(t, func() prefetch.Design { return prefetch.NewBaseline(2048) })
	if r.Obs != nil {
		t.Fatal("Result.Obs set without RunConfig.Obs")
	}
}

// TestStallAttributionConservation checks the tentpole invariant end to end
// on a real multi-core run: every measured cycle of every core is charged to
// exactly one bucket — delivering or one of the six stall causes.
func TestStallAttributionConservation(t *testing.T) {
	r := obsRun(t, obs.Config{})
	for i := range r.PerCore {
		m := &r.PerCore[i]
		if got := m.BusyCycles + m.StallCycles(); got != m.Cycles {
			t.Errorf("core %d: busy %d + stalled %d = %d, want %d cycles",
				i, m.BusyCycles, m.StallCycles(), got, m.Cycles)
		}
		var sum uint64
		for _, c := range m.StallBreakdown() {
			sum += c
		}
		if sum != m.Cycles {
			t.Errorf("core %d: StallBreakdown sums to %d, want %d", i, sum, m.Cycles)
		}
	}
	// The aggregate partitions too (Metrics.Add preserves the invariant).
	if got := r.M.BusyCycles + r.M.StallCycles(); got != r.M.Cycles {
		t.Errorf("aggregate: busy+stalled = %d, want %d", got, r.M.Cycles)
	}
	if fs := r.M.FrontendStalls(); fs == 0 {
		t.Error("no frontend stalls attributed on a 1MB-footprint workload")
	}
}

func TestObsHistogramsPopulated(t *testing.T) {
	r := obsRun(t, obs.Config{})
	if r.Obs == nil {
		t.Fatal("Result.Obs nil with RunConfig.Obs set")
	}
	for _, name := range []string{
		HistDemandLat, HistPrefetchLat, HistNoCLat, HistLLCQueue,
		HistMSHROcc, HistROBOcc, HistFTQOcc,
	} {
		h, ok := r.Obs.Hist(name)
		if !ok {
			t.Errorf("histogram %s not in snapshot", name)
			continue
		}
		if h.N == 0 {
			t.Errorf("histogram %s is empty", name)
		}
	}
	if _, ok := r.Obs.Hist("no.such.hist"); ok {
		t.Error("lookup of unknown histogram succeeded")
	}
	// Latencies are issue->fill round trips; zero would mean a broken probe.
	if h, _ := r.Obs.Hist(HistDemandLat); h.N > 0 && h.Min == 0 {
		t.Error("zero-cycle demand fill recorded")
	}
	var hw uint64
	for _, c := range r.Obs.Counters {
		if len(c.Name) > 4 && c.Name[:4] == "mshr" {
			hw += c.Value
		}
	}
	if hw == 0 {
		t.Error("no MSHR high-water marks recorded")
	}
}

func TestObsTraceExport(t *testing.T) {
	r := obsRun(t, obs.Config{TraceEvents: 1 << 12})
	if r.Obs.TraceTotal == 0 {
		t.Fatal("tracing enabled but no events emitted")
	}
	if len(r.Obs.Events) == 0 {
		t.Fatal("no events buffered")
	}
	kinds := map[obs.EventKind]int{}
	for _, ev := range r.Obs.Events {
		kinds[ev.Kind]++
	}
	if kinds[obs.EvStall] == 0 {
		t.Error("no stall spans in trace")
	}
	if kinds[obs.EvPrefetchIssue] == 0 {
		t.Error("no prefetch issues in trace under a prefetching design")
	}
	var buf bytes.Buffer
	err := obs.WritePerfetto(&buf, r.Obs.Events, obs.TraceMeta{
		Workload: r.Workload, Design: r.Design, Cores: len(r.PerCore),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("exported trace is not valid JSON")
	}
}

// TestObsFastForwardInvariant: fast-forward clamps its jumps to the
// sampling cadence, and before each sample the engine brings every lagged
// sleeping core to the clock (syncCores), so the sampled occupancy
// histograms — and every other histogram and counter — must be
// bit-identical with and without fast-forward. Gauges do not freeze during
// a pure stall (its window retires in place, draining the ROB); the sync is
// what makes a sleeping core's sample read what a cycle-by-cycle loop sees.
func TestObsFastForwardInvariant(t *testing.T) {
	nd := func() prefetch.Design {
		return prefetch.NewProactive(prefetch.DefaultProactiveConfig())
	}
	rc := RunConfig{
		Workload: smallWorkload(), NewDesign: nd, Cores: 2,
		WarmCycles: 20_000, MeasureCycles: 20_000, Seed: 1,
		Obs: &obs.Config{},
	}
	fast := Run(rc)
	rc.DisableFastForward = true
	slow := Run(rc)
	if h, ok := fast.Obs.Hist(HistROBOcc); !ok || h.N == 0 {
		t.Fatalf("no ROB occupancy samples: %+v", h)
	}
	if !reflect.DeepEqual(fast.Obs.Hists, slow.Obs.Hists) {
		t.Fatalf("histograms differ under fast-forward:\nfast: %+v\nslow: %+v",
			fast.Obs.Hists, slow.Obs.Hists)
	}
	if !reflect.DeepEqual(fast.Obs.Counters, slow.Obs.Counters) {
		t.Fatalf("counters differ under fast-forward:\nfast: %+v\nslow: %+v",
			fast.Obs.Counters, slow.Obs.Counters)
	}
}

// TestObsDoesNotPerturbTiming: the observability layer is a pure observer —
// the simulated machine must retire the identical instruction stream with
// and without it.
func TestObsDoesNotPerturbTiming(t *testing.T) {
	nd := func() prefetch.Design {
		return prefetch.NewProactive(prefetch.DefaultProactiveConfig())
	}
	rc := RunConfig{
		Workload: smallWorkload(), NewDesign: nd, Cores: 2,
		WarmCycles: 20_000, MeasureCycles: 20_000, Seed: 1,
	}
	plain := Run(rc)
	rc.Obs = &obs.Config{TraceEvents: 1 << 10}
	observed := Run(rc)
	if plain.M.Retired != observed.M.Retired ||
		plain.M.Cycles != observed.M.Cycles ||
		plain.M.DemandMisses != observed.M.DemandMisses ||
		plain.M.PrefetchesIssued != observed.M.PrefetchesIssued {
		t.Errorf("observability perturbed the run: retired %d vs %d, misses %d vs %d, prefetches %d vs %d",
			plain.M.Retired, observed.M.Retired,
			plain.M.DemandMisses, observed.M.DemandMisses,
			plain.M.PrefetchesIssued, observed.M.PrefetchesIssued)
	}
}
