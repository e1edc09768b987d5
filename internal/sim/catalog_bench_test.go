package sim

import (
	"testing"

	"dnc/internal/isa"
	"dnc/internal/prefetch"
	"dnc/internal/workloads"
)

// BenchmarkCatalog is the per-design host-cost ledger: every catalog design
// on one serial cell (fixed-length Web-Zeus, 4 cores, 200K+200K cycles,
// seed 1).
// Besides ns/op and allocs/op, each sub-benchmark reports ns per simulated
// core-cycle, ns per instruction retired in the measurement window, and
// tick-share: the share of core-cycles the engine advanced through a full
// Tick rather than a fast-forward jump (Result.TickedCycles), and
// window-retired-share: the share of the measurement window's retirements
// that happened inside such a jump (Result.WindowRetired). Both shares and
// allocs/op are deterministic (every run after the first reuses the LLC the
// one before released, at any -cpu), so a change to the engine's window
// logic or its allocations moves them exactly; ns is host time and drifts
// with the host.
//
//	go test ./internal/sim -run '^$' -bench BenchmarkCatalog -benchtime 3x -cpu 1
func BenchmarkCatalog(b *testing.B) { benchCatalog(b, isa.Fixed) }

// BenchmarkCatalogVariable is the same ledger on variable-length Web-Zeus,
// where the zero LLC config turns DV-LLC on; the pattern above runs both.
func BenchmarkCatalogVariable(b *testing.B) { benchCatalog(b, isa.Variable) }

func benchCatalog(b *testing.B, mode isa.Mode) {
	for _, e := range prefetch.Catalog() {
		b.Run(e.Name, func(b *testing.B) {
			rc := engineConfig(b, e.Name, 4)
			rc.Workload = workloads.Params("Web-Zeus", mode)
			rc.WarmCycles, rc.MeasureCycles, rc.IntraJobs = 200_000, 200_000, 1
			Program(rc.Workload) // generation cost is one-time; keep it out of the loop
			b.ReportAllocs()
			b.ResetTimer()
			var r Result
			for i := 0; i < b.N; i++ {
				if r = Run(rc); r.M.Retired == 0 {
					b.Fatal("no instructions retired")
				}
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			coreCycles := float64(uint64(rc.Cores) * (rc.WarmCycles + rc.MeasureCycles))
			b.ReportMetric(ns/coreCycles, "ns/core-cycle")
			b.ReportMetric(ns/float64(r.M.Retired), "ns/retired-inst")
			b.ReportMetric(float64(r.TickedCycles)/coreCycles, "tick-share")
			b.ReportMetric(float64(r.WindowRetired)/float64(r.M.Retired), "window-retired-share")
		})
	}
}
