package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounterSet(t *testing.T) {
	s := NewSet()
	c := s.Counter("misses")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 || s.Value("misses") != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if s.Counter("misses") != c {
		t.Fatal("counter not memoized")
	}
	if s.Value("absent") != 0 {
		t.Fatal("absent counter nonzero")
	}
	s.Counter("accesses").Add(10)
	if r := s.Ratio("misses", "accesses"); r != 0.5 {
		t.Fatalf("ratio = %v", r)
	}
	if s.Ratio("misses", "absent") != 0 {
		t.Fatal("ratio with zero denominator must be 0")
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "misses" {
		t.Fatalf("names = %v", names)
	}
	if !strings.Contains(s.String(), "misses=5") {
		t.Fatalf("String() = %q", s.String())
	}
	s.Reset()
	if s.Value("misses") != 0 {
		t.Fatal("reset failed")
	}
	if c.Name() != "misses" {
		t.Fatal("name lost")
	}
}

func TestSnapshotRegistrationOrder(t *testing.T) {
	s := NewSet()
	s.Counter("zeta").Add(1)
	s.Counter("alpha").Add(2)
	s.Counter("mid").Add(3)
	s.Counter("zeta").Add(10) // re-lookup must not reorder
	snap := s.Snapshot()
	want := []CounterValue{{"zeta", 11}, {"alpha", 2}, {"mid", 3}}
	if len(snap) != len(want) {
		t.Fatalf("snapshot = %v", snap)
	}
	for i, w := range want {
		if snap[i] != w {
			t.Errorf("snapshot[%d] = %+v, want %+v", i, snap[i], w)
		}
	}
	s.Reset()
	snap = s.Snapshot()
	if len(snap) != 3 || snap[0].Name != "zeta" || snap[0].Value != 0 {
		t.Errorf("post-Reset snapshot = %v, want same order, zero values", snap)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Stddev-2.138) > 0.01 {
		t.Fatalf("stddev = %v", s.Stddev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.CI95 <= 0 {
		t.Fatalf("CI95 = %v", s.CI95)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Fatal("empty summary nonzero")
	}
	one := Summarize([]float64{3})
	if one.Stddev != 0 || one.CI95 != 0 {
		t.Fatal("single sample must have no spread")
	}
}

func TestSummarizeQuick(t *testing.T) {
	f := func(vals []float64) bool {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				return true // skip pathological inputs
			}
		}
		s := Summarize(vals)
		if len(vals) == 0 {
			return s.N == 0
		}
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && s.Stddev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTCritical(t *testing.T) {
	if tCritical95(1) != 12.706 {
		t.Error("df=1 wrong")
	}
	if tCritical95(0) != 0 {
		t.Error("df=0 must be 0")
	}
	// Past the table each step returns its lowest df's value: never
	// narrower than the exact interval.
	for _, c := range []struct {
		df   int
		want float64
	}{{21, 2.080}, {25, 2.080}, {29, 2.080}, {30, 2.042}, {40, 2.042}, {59, 2.042},
		{60, 2.000}, {119, 2.000}, {120, 1.96}} {
		if v := tCritical95(c.df); v != c.want {
			t.Errorf("df=%d = %v, want %v", c.df, v, c.want)
		}
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-9 {
		t.Fatalf("geomean = %v", g)
	}
	if g := GeoMean([]float64{2, -1, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean with skipped nonpositive = %v", g)
	}
	if GeoMean(nil) != 0 || GeoMean([]float64{-1}) != 0 {
		t.Fatal("empty geomean nonzero")
	}
}

func TestTable(t *testing.T) {
	tab := &Table{Header: []string{"name", "value"}}
	tab.AddRow("alpha", "1")
	tab.AddRow("b", "22222")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	// Columns must align: every line equally indented at column 2.
	if !strings.HasPrefix(lines[0], "name ") {
		t.Fatalf("header misaligned: %q", lines[0])
	}
	if !strings.Contains(lines[1], "-----") {
		t.Fatalf("separator missing: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "alpha") || !strings.HasPrefix(lines[3], "b ") {
		t.Fatalf("rows wrong:\n%s", out)
	}
}

func TestFormatters(t *testing.T) {
	if Pct(0.1234) != "12.3%" {
		t.Errorf("Pct = %q", Pct(0.1234))
	}
	if F2(1.237) != "1.24" {
		t.Errorf("F2 = %q", F2(1.237))
	}
}
