// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each sub-benchmark of BenchmarkExperiments runs one experiment
// through internal/bench and reports its headline numbers as custom
// metrics, so the output of
//
//	go test -bench=. -benchmem
//
// is a machine-readable form of the paper's results. Experiment tables are
// logged with -v. Runs share a process-wide harness cache, so the suite
// costs one simulation per distinct configuration regardless of b.N.
//
// Scale defaults to the quick configuration (16 cores, shortened windows);
// set DNC_BENCH_SCALE=paper for the paper-scale 200K+200K methodology.
package main

import (
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"dnc/internal/bench"
)

var (
	harnessOnce sync.Once
	harness     *bench.Harness
)

func sharedHarness() *bench.Harness {
	harnessOnce.Do(func() {
		cfg := bench.Quick()
		if os.Getenv("DNC_BENCH_SCALE") == "paper" {
			cfg = bench.Paper()
		}
		harness = bench.New(cfg)
	})
	return harness
}

// BenchmarkExperiments runs every experiment, ablations included, as the
// sub-benchmark named by its ID (BenchmarkExperiments/fig16, ...): once per
// iteration (the harness cache makes repeats free), reporting its headline
// metrics.
func BenchmarkExperiments(b *testing.B) {
	for _, id := range append(bench.IDs(), bench.AblationIDs()...) {
		b.Run(id, func(b *testing.B) {
			h := sharedHarness()
			var e bench.Experiment
			for i := 0; i < b.N; i++ {
				e, _ = h.ByID(id)
			}
			keys := make([]string, 0, len(e.Headline))
			for k := range e.Headline {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				// Benchmark metric units must not contain whitespace.
				unit := strings.ReplaceAll(k, " ", "-")
				b.ReportMetric(e.Headline[k], unit)
			}
			b.Log("\n" + e.Title + "\n" + e.PaperNote + "\n" + e.Table.String())
		})
	}
}
