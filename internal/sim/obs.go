package sim

import (
	"fmt"
	"sort"

	"dnc/internal/core"
	"dnc/internal/obs"
	"dnc/internal/prefetch"
)

// Histogram names registered by the observability layer. Callers read them
// back from Result.Obs via RunObs.Hist.
const (
	HistDemandLat   = "lat.l1i.demand"    // demand-miss issue->fill cycles
	HistPrefetchLat = "lat.l1i.prefetch"  // prefetch issue->fill cycles
	HistNoCLat      = "lat.noc.packet"    // NoC packet injection->delivery cycles
	HistLLCQueue    = "lat.llc.bankqueue" // LLC bank queueing delay per access
	HistMSHROcc     = "occ.mshr"          // sampled MSHR occupancy, all cores
	HistROBOcc      = "occ.rob"           // sampled ROB occupancy, all cores
	HistFTQOcc      = "occ.ftq"           // sampled design queue/FTQ occupancy
)

// machineObs owns a run's observability state: the registry of histograms,
// the shared event tracer, and the gauge-sampling cadence. One instance per
// machine; nil when RunConfig.Obs is nil, which keeps the tick loop at a
// single pointer test.
type machineObs struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	demandLat, prefetchLat *obs.Histogram
	nocLat, llcQueue       *obs.Histogram
	mshrOcc, robOcc        *obs.Histogram
	ftqOcc                 *obs.Histogram

	ckptSeq uint64

	// Shard state for a run that may shard: each core gets a private tracer
	// and latency histograms — the only obs state written from inside Tick —
	// merged deterministically at fold. Nil for a run that stays serial,
	// whose cores share the registry instances directly. latBounds and
	// traceCap are kept so attach can build the shards with the same shapes
	// as the shared instances.
	shardTracers               []*obs.Tracer
	shardDemand, shardPrefetch []*obs.Histogram
	latBounds                  []uint64
	traceCap                   int
}

func newMachineObs(cfg obs.Config) *machineObs {
	o := &machineObs{reg: obs.NewRegistry()}
	o.tracer = obs.NewTracer(cfg.TraceEvents)

	o.traceCap = cfg.TraceEvents

	// Fill latencies span an L1i->local-LLC hit (tens of cycles) to a
	// contended DRAM round trip (hundreds); geometric bounds cover both ends.
	latBounds := obs.ExpBounds(8, 1.5, 16)
	o.latBounds = latBounds
	o.demandLat = o.reg.Histogram(HistDemandLat, latBounds)
	o.prefetchLat = o.reg.Histogram(HistPrefetchLat, latBounds)
	o.nocLat = o.reg.Histogram(HistNoCLat, obs.ExpBounds(2, 1.5, 12))
	o.llcQueue = o.reg.Histogram(HistLLCQueue, obs.LinearBounds(8, 8))
	o.mshrOcc = o.reg.Histogram(HistMSHROcc, obs.LinearBounds(2, 16))
	o.robOcc = o.reg.Histogram(HistROBOcc, obs.LinearBounds(8, 16))
	o.ftqOcc = o.reg.Histogram(HistFTQOcc, obs.LinearBounds(2, 16))
	return o
}

// attach fans the observability hooks out to every instrumented component.
// When the run may shard, each core gets private shard instances for the
// state it writes from inside Tick; the uncore-side histograms stay shared —
// only the coordinator's serial replay touches them.
func (o *machineObs) attach(m *machine) {
	if m.eng.limit > 1 {
		n := len(m.cores)
		o.shardTracers = make([]*obs.Tracer, n)
		o.shardDemand = make([]*obs.Histogram, n)
		o.shardPrefetch = make([]*obs.Histogram, n)
		for i, c := range m.cores {
			o.shardTracers[i] = obs.NewTracer(o.traceCap)
			o.shardDemand[i] = obs.NewHistogram(HistDemandLat, o.latBounds)
			o.shardPrefetch[i] = obs.NewHistogram(HistPrefetchLat, o.latBounds)
			c.SetObs(core.ObsHooks{
				Tracer:      o.shardTracers[i],
				DemandLat:   o.shardDemand[i],
				PrefetchLat: o.shardPrefetch[i],
			})
		}
	} else {
		for _, c := range m.cores {
			c.SetObs(core.ObsHooks{
				Tracer:      o.tracer,
				DemandLat:   o.demandLat,
				PrefetchLat: o.prefetchLat,
			})
		}
	}
	m.uncore.Mesh.SetObs(o.nocLat)
	m.uncore.LLC.SetObs(o.llcQueue)
}

// sample records the occupancy gauges of every core (called on the
// obs.SampleEvery cadence from the tick loop).
func (o *machineObs) sample(m *machine) {
	for i, c := range m.cores {
		o.robOcc.Observe(uint64(c.ROBOccupancy()))
		o.mshrOcc.Observe(uint64(c.MSHRs().Len()))
		if r, ok := m.designs[i].(prefetch.OccupancyReporter); ok {
			o.ftqOcc.Observe(uint64(r.QueueOccupancy()))
		}
	}
}

// resetWindow clears everything at the warm-up/measurement boundary so the
// folded snapshot covers the measurement window only. Core-side stall-run
// state is restarted by core.ResetMetrics.
func (o *machineObs) resetWindow(m *machine) {
	o.reg.Reset()
	o.tracer.Reset()
	for i := range o.shardTracers {
		o.shardTracers[i].Reset()
		o.shardDemand[i].Reset()
		o.shardPrefetch[i].Reset()
	}
	for _, c := range m.cores {
		c.MSHRs().ResetHighWater()
	}
}

// noteCheckpoint emits a machine-global checkpoint marker into the trace.
func (o *machineObs) noteCheckpoint(cycle uint64) {
	o.ckptSeq++
	o.tracer.Emit(obs.Event{Cycle: cycle, Arg: o.ckptSeq, Core: -1, Kind: obs.EvCheckpoint})
}

// fold closes open stall runs, snapshots the registry, and returns the
// run's observability result. Shard histograms merge into the registered
// instances first — bucket sums, totals, and extrema commute, so the
// snapshots are bit-identical to the serial engines'. The merged event
// trace is ordered by (cycle, core): the serial single-ring interleaving is
// not reproducible from per-core rings (span-close events are emitted late
// with their start-cycle stamps, and each ring drops independently), so
// Events and TraceDropped are diagnostic, not part of the bit-exactness
// contract.
func (o *machineObs) fold(m *machine) *obs.RunObs {
	for i, c := range m.cores {
		c.FlushObs()
		o.reg.Counter(fmt.Sprintf("mshr.highwater.core%d", i)).
			Add(uint64(c.MSHRs().HighWater()))
	}
	for i := range o.shardTracers {
		o.demandLat.Merge(o.shardDemand[i])
		o.prefetchLat.Merge(o.shardPrefetch[i])
	}
	hists, counters := o.reg.Snapshot()
	ro := &obs.RunObs{
		Hists:        hists,
		Counters:     counters,
		TraceTotal:   o.tracer.Total(),
		TraceDropped: o.tracer.Dropped(),
		Events:       o.tracer.Events(),
	}
	for i := range o.shardTracers {
		t := o.shardTracers[i]
		ro.TraceTotal += t.Total()
		ro.TraceDropped += t.Dropped()
		ro.Events = append(ro.Events, t.Events()...)
	}
	if o.shardTracers != nil {
		sort.SliceStable(ro.Events, func(a, b int) bool {
			if ro.Events[a].Cycle != ro.Events[b].Cycle {
				return ro.Events[a].Cycle < ro.Events[b].Cycle
			}
			return ro.Events[a].Core < ro.Events[b].Core
		})
	}
	return ro
}
