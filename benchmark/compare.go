package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// compareMain is `benchmark compare PARENT CHANGE`: each argument is a
// result.json or a directory searched for them (as -out and -workload all
// leave them). Runs are paired in path order, so name the directories of a
// paired series so that they sort the way the runs alternated.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare PARENT CHANGE   (result.json files or directories of them)")
		return 2
	}
	var sets [2]map[runKey][]*result
	for i, arg := range args {
		var err error
		if sets[i], err = loadResults(arg); err != nil {
			fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
			return 2
		}
	}
	regressed, err := compareSets(stdout, sets[0], sets[1])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
		return 2
	}
	if regressed {
		return 1
	}
	return 0
}

// runKey separates result files that must not be pooled: another seed
// simulates other cells, and a traced run prints other metrics.
type runKey struct {
	workload string
	seed     int64
	traced   bool
}

func loadResults(root string) (map[runKey][]*result, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !e.IsDir() && (path == root || e.Name() == "result.json") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := map[runKey][]*result{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		k := runKey{r.Workload, r.Seed, r.Traced}
		out[k] = append(out[k], &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result.json under %s", root)
	}
	return out, nil
}

// Verdicts. A metric is never "unchanged" while the parent's own spread is
// wider than the metric's bound: that is "unresolved".
const (
	improved   = "improved"
	regressed  = "regressed"
	unresolved = "unresolved"
	unchanged  = "unchanged"
)

// compareSets prints one row per workload × seed × metric and reports
// whether any row regressed. A run without a partner on the other side is
// an error: dropping it silently would change which runs are paired.
func compareSets(w io.Writer, parent, change map[runKey][]*result) (anyRegressed bool, err error) {
	var keys []runKey
	for k, p := range parent {
		if len(change[k]) != len(p) {
			return false, fmt.Errorf("%s seed %d traced=%v: parent has %d runs, change has %d; every run needs its pair",
				k.workload, k.seed, k.traced, len(p), len(change[k]))
		}
		keys = append(keys, k)
	}
	for k, c := range change {
		if len(parent[k]) == 0 {
			return false, fmt.Errorf("%s seed %d traced=%v: change has %d runs, parent has none", k.workload, k.seed, k.traced, len(c))
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.traced != b.traced {
			return !a.traced
		}
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		return a.seed < b.seed
	})
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tseed\tmetric\tunit\tpairs\tparent q1 / median / q3\tchange q1 / median / q3\tchange\twins\tverdict")
	tally := map[string]int{}
	secondary := 0
	defs := append(append([]metricDef(nil), endToEnd...), perLayer...)
	for _, k := range keys {
		p, c := parent[k], change[k]
		for _, d := range defs {
			if _, ok := p[0].Metrics[d.Name]; !ok {
				continue
			}
			if !primary(d.Name, k.workload) {
				secondary++ // restates a primary row of this workload
				continue
			}
			pv, cv := make([]float64, len(p)), make([]float64, len(p))
			failed := false
			for i := range p {
				pv[i], cv[i] = p[i].Metrics[d.Name].Value, c[i].Metrics[d.Name].Value
				failed = failed || c[i].Failed > p[i].Failed
			}
			v := judge(d, pv, cv)
			if failed && v.verdict == improved {
				v.verdict = unresolved // a gain does not count when more operations fail
			}
			if d.Bound > 0 || v.verdict == improved || v.verdict == regressed {
				tally[v.verdict]++
				anyRegressed = anyRegressed || v.verdict == regressed
			}
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%d\t%.5g / %.5g / %.5g\t%.5g / %.5g / %.5g\t%+.1f%%\t%d-%d\t%s\n",
				k.workload, k.seed, d.Name, d.Unit, len(p),
				v.pq[0], v.pq[1], v.pq[2], v.cq[0], v.cq[1], v.cq[2],
				100*v.shift, v.wins, v.losses, v.verdict)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "%d improved, %d regressed, %d unresolved, %d unchanged (bounded metrics, plus per-layer metrics that moved); %d secondary rows not judged\n",
		tally[improved], tally[regressed], tally[unresolved], tally[unchanged], secondary)
	return anyRegressed, nil
}

type judgement struct {
	pq, cq       [3]float64 // quartiles
	shift        float64    // (change median - parent median) / parent median
	wins, losses int        // pairs the change won / lost; ties count for neither
	verdict      string
}

// judge applies the rule: a side wins when it is better in at least nine
// tenths of the pairs and the medians differ by more than the distance
// between the parent's quartiles. Otherwise a bounded metric is unchanged
// only if the median stayed within the bound and the parent's spread is
// narrower than the bound; anything else is unresolved.
func judge(d metricDef, parent, change []float64) judgement {
	j := judgement{pq: quartiles(parent), cq: quartiles(change)}
	sign := 1.0 // positive = better
	if d.Better == "lower" {
		sign = -1
	}
	for i := range parent {
		switch diff := sign * (change[i] - parent[i]); {
		case diff > 0:
			j.wins++
		case diff < 0:
			j.losses++
		}
	}
	pm, cm := j.pq[1], j.cq[1]
	j.shift = ratio(cm-pm, pm)
	gain := sign * (cm - pm)
	iqr := j.pq[2] - j.pq[0]
	need := (9*len(parent) + 9) / 10 // nine tenths of the pairs, rounded up
	switch {
	case j.wins >= need && gain > iqr:
		j.verdict = improved
	case j.losses >= need && -gain > iqr:
		j.verdict = regressed
	case d.Bound == 0:
		j.verdict = "-" // per-layer metrics carry no bound
	case ratio(iqr, math.Abs(pm)) > d.Bound:
		j.verdict = unresolved
	case -gain > d.Bound*math.Abs(pm):
		j.verdict = unresolved // past the bound, yet not in nine pairs of ten
	default:
		j.verdict = unchanged
	}
	return j
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) computes them, which is what the
// driver uses; with fewer than two values all three are the value itself.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 0 {
		return [3]float64{}
	}
	if m == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
