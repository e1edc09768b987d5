// Package stats provides counters, derived ratios, and simple summary
// statistics (mean, standard deviation, confidence intervals) used by the
// simulator and the benchmark harness.
//
// The simulator is deterministic given a seed, so statistics across samples
// come from independently seeded runs, mirroring the SimFlex-style sampling
// methodology of the paper (multiple checkpoints, warm-up + measurement).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event counter.
type Counter struct {
	name string
	n    uint64
}

// Name returns the counter's registration name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Set is a registry of named counters. The zero value is not usable; call
// NewSet.
type Set struct {
	order    []string
	counters map[string]*Counter
}

// NewSet returns an empty counter registry.
func NewSet() *Set {
	return &Set{counters: make(map[string]*Counter)}
}

// Counter returns the counter with the given name, creating it if needed.
func (s *Set) Counter(name string) *Counter {
	if c, ok := s.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	s.counters[name] = c
	s.order = append(s.order, name)
	return c
}

// Value returns the value of the named counter, or zero if it was never
// created.
func (s *Set) Value(name string) uint64 {
	if c, ok := s.counters[name]; ok {
		return c.n
	}
	return 0
}

// Ratio returns num/den over the named counters; it returns 0 when the
// denominator is zero.
func (s *Set) Ratio(num, den string) float64 {
	d := s.Value(den)
	if d == 0 {
		return 0
	}
	return float64(s.Value(num)) / float64(d)
}

// Names returns counter names in creation order.
func (s *Set) Names() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Reset zeroes every counter in the set, in registration order.
func (s *Set) Reset() {
	for _, n := range s.order {
		s.counters[n].Reset()
	}
}

// CounterValue is one counter's value captured by Snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// Snapshot captures every counter in registration order, for per-window
// sampling and for folding a registry into a run result.
func (s *Set) Snapshot() []CounterValue {
	out := make([]CounterValue, len(s.order))
	for i, n := range s.order {
		out[i] = CounterValue{Name: n, Value: s.counters[n].n}
	}
	return out
}

// String renders the set as "name=value" lines sorted by name, for debugging.
func (s *Set) String() string {
	names := s.Names()
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d\n", n, s.counters[n].n)
	}
	return b.String()
}

// Summary holds the summary statistics of a series of sample measurements.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	// CI95 is the half-width of the 95% confidence interval of the mean.
	CI95 float64
}

// Summarize computes summary statistics over the samples. It returns a zero
// Summary for an empty slice.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	var sum float64
	mn, mx := samples[0], samples[0]
	for _, v := range samples {
		sum += v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	mean := sum / float64(len(samples))
	var sq float64
	for _, v := range samples {
		d := v - mean
		sq += d * d
	}
	var sd float64
	if len(samples) > 1 {
		sd = math.Sqrt(sq / float64(len(samples)-1))
	}
	ci := 0.0
	if len(samples) > 1 {
		ci = tCritical95(len(samples)-1) * sd / math.Sqrt(float64(len(samples)))
	}
	return Summary{N: len(samples), Mean: mean, Stddev: sd, Min: mn, Max: mx, CI95: ci}
}

// tCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom: exact up to df 20, then in steps that each
// return the value at the step's lowest df, so an interval is never
// narrower than the exact one up to df 119. From df 120 on it returns the
// normal value 1.96 (t at df 120 is 1.980).
func tCritical95(df int) float64 {
	table := []float64{
		0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
		2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
		2.086,
	}
	if df <= 0 {
		return 0
	}
	if df < len(table) {
		return table[df]
	}
	switch {
	case df < 30:
		return 2.080 // df 21
	case df < 60:
		return 2.042 // df 30
	case df < 120:
		return 2.000 // df 60
	default:
		return 1.96
	}
}

// GeoMean returns the geometric mean of the samples. Samples must be
// positive; non-positive values are skipped.
func GeoMean(samples []float64) float64 {
	var logSum float64
	n := 0
	for _, v := range samples {
		if v <= 0 {
			continue
		}
		logSum += math.Log(v)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Table renders rows of labelled values as an aligned text table; used by
// cmd/dncbench to print paper-style tables and figure series.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells to the table.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with column alignment.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Pct formats a fraction as a percentage with one decimal.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// F2 formats a float with two decimals.
func F2(v float64) string { return fmt.Sprintf("%.2f", v) }
