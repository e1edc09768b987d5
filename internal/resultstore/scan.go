package resultstore

import (
	"fmt"
	"sort"

	"dnc/internal/stats"
)

// MetricIPC is the derived metric name Scan accepts alongside the stored
// counter columns: retired instructions per cycle, computed per cell from
// m.Retired and m.Cycles.
const MetricIPC = "ipc"

// Query is one aggregate question against a store: which cells (tag
// filters, nil = any) and which metric. Metric is a stored column name
// ("m.Retired", "llc.InstHits", …) or the derived MetricIPC.
type Query struct {
	Workloads []string
	Designs   []string
	Seeds     []int64
	Metric    string
}

// Group is one aggregate row: the per-cell metric values of one
// design × workload group, reduced.
type Group struct {
	Workload string  `json:"workload"`
	Design   string  `json:"design"`
	N        int     `json:"n"`
	Mean     float64 `json:"mean"`
	// CI95 is the half-width of the Student-t 95% confidence interval of
	// the mean, as stats.Summarize computes it (0 for a single sample).
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// colCycles and colRetired are the stored columns MetricIPC derives from.
const (
	colCycles  = "m.Cycles"
	colRetired = "m.Retired"
)

// reads reports whether answering q touches the stored column name.
func (q *Query) reads(name []byte) bool {
	if q.Metric == MetricIPC {
		return string(name) == colCycles || string(name) == colRetired
	}
	return string(name) == q.Metric
}

// Scan answers an aggregate query: one Group per design × workload pair
// with at least one matching cell, sorted by workload then design. This is
// the "IPC CI for every design × workload" question answered from the file
// alone — no simulator, no journal re-parse. The file's segments are
// decoded straight into an index holding just the columns the metric reads.
func Scan(r *Reader, q Query) ([]Group, error) {
	if q.Metric == "" {
		return nil, fmt.Errorf("resultstore: query needs a metric")
	}
	ix, err := r.buildIndex(&q)
	if err != nil {
		return nil, err
	}
	return ix.scan(q)
}

// scan answers an aggregate query from the index: tag filters are resolved
// to id sets once, only the metric's own columns are read, and each group's
// values are reduced in append order — so the floats match, bit for bit, a
// scan of a file holding the same cells in the same order.
func (ix *index) scan(q Query) ([]Group, error) {
	if q.Metric == "" {
		return nil, fmt.Errorf("resultstore: query needs a metric")
	}
	wantW, wantD := ix.tagSet(q.Workloads), ix.tagSet(q.Designs)
	ipc := q.Metric == MetricIPC
	num, den := ix.cols[q.Metric], (*column)(nil)
	if ipc {
		num, den = ix.cols[colRetired], ix.cols[colCycles]
	}

	type acc struct {
		workload, design uint32
		vals             []float64
	}
	var accs []acc
	groupOf := map[uint64]int{}
	for i := 0; i < ix.n; i++ {
		w, d := ix.workload[i], ix.design[i]
		if (wantW != nil && !wantW[w]) || (wantD != nil && !wantD[d]) || !matchSeed(q.Seeds, ix.seed[i]) {
			continue
		}
		val, ok := metricValue(i, num, den, ipc)
		if !ok {
			return nil, fmt.Errorf("resultstore: cell %s has no metric %q", ix.key(i), q.Metric)
		}
		k := uint64(w)<<32 | uint64(d)
		g, seen := groupOf[k]
		if !seen {
			g = len(accs)
			groupOf[k] = g
			accs = append(accs, acc{workload: w, design: d})
		}
		accs[g].vals = append(accs[g].vals, val)
	}
	out := make([]Group, len(accs))
	for g, a := range accs {
		out[g] = reduce(ix.strs[a.workload], ix.strs[a.design], a.vals)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Design < out[j].Design
	})
	return out, nil
}

// tagSet resolves a tag filter to a set over the index's ids; nil = any.
// A name the index has never seen selects nothing.
func (ix *index) tagSet(names []string) []bool {
	if len(names) == 0 {
		return nil
	}
	set := make([]bool, len(ix.strs))
	for _, s := range names {
		if id, ok := ix.ids[s]; ok {
			set[id] = true
		}
	}
	return set
}

// metricValue is cell i's value of the queried metric: num's counter, or
// for ipc retired/cycles, where a present zero cycle count reads as 0
// whatever retired.
func metricValue(i int, num, den *column, ipc bool) (float64, bool) {
	if !ipc {
		v, ok := num.get(i)
		return float64(v), ok
	}
	cycles, ok := den.get(i)
	if !ok || cycles == 0 {
		return 0, ok
	}
	retired, ok := num.get(i)
	return float64(retired) / float64(cycles), ok
}

func matchSeed(set []int64, v int64) bool {
	for _, s := range set {
		if s == v {
			return true
		}
	}
	return len(set) == 0
}

// reduce folds one group's per-cell values, in the order given.
func reduce(workload, design string, vals []float64) Group {
	s := stats.Summarize(vals)
	return Group{Workload: workload, Design: design, N: s.N, Mean: s.Mean, CI95: s.CI95, Min: s.Min, Max: s.Max}
}
