package bench

import (
	"testing"

	"dnc/internal/sim"
)

// TestPaperShapes asserts the paper's qualitative results end to end on a
// two-workload, reduced-scale configuration. It is the repository's
// regression net for the claims EXPERIMENTS.md records; the full-suite
// numbers come from the benchmarks. Skipped with -short.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("shape assertions need full simulations")
	}
	h := New(Config{
		Cores:         8,
		WarmCycles:    100_000,
		MeasureCycles: 80_000,
		Workloads:     []string{"Web-Zeus", "OLTP-DB-B"},
		Seed:          1,
	})

	var base, n4l, n8l, sn4l, snd, dnc, shot, conf []sim.Result
	for _, w := range h.Workloads() {
		base = append(base, h.run(w, baseline))
		n4l = append(n4l, h.run(w, spec{design: "N4L"}))
		n8l = append(n8l, h.run(w, spec{design: "N8L"}))
		sn4l = append(sn4l, h.run(w, spec{design: "SN4L"}))
		snd = append(snd, h.run(w, spec{design: "SN4L+Dis"}))
		dnc = append(dnc, h.run(w, full))
		shot = append(shot, h.run(w, shotgun))
		conf = append(conf, h.run(w, confluence))
	}
	avgSpeedup := func(rs []sim.Result) float64 {
		var s float64
		for i, r := range rs {
			s += sim.Speedup(r, base[i])
		}
		return s / float64(len(rs))
	}
	avgFSCR := func(rs []sim.Result) float64 {
		var s float64
		for i, r := range rs {
			s += sim.FSCR(r, base[i])
		}
		return s / float64(len(rs))
	}
	avgBW := func(rs []sim.Result) float64 {
		var s float64
		for i, r := range rs {
			s += sim.BandwidthRatio(r, base[i])
		}
		return s / float64(len(rs))
	}

	spN4L, spN8L := avgSpeedup(n4l), avgSpeedup(n8l)
	spSN4L, spSND, spFull := avgSpeedup(sn4l), avgSpeedup(snd), avgSpeedup(dnc)
	spShot, spConf := avgSpeedup(shot), avgSpeedup(conf)

	t.Logf("speedups: N4L=%.3f N8L=%.3f SN4L=%.3f SN4L+Dis=%.3f full=%.3f shotgun=%.3f confluence=%.3f",
		spN4L, spN8L, spSN4L, spSND, spFull, spShot, spConf)

	// Every prefetcher beats the baseline.
	for name, sp := range map[string]float64{
		"N4L": spN4L, "SN4L": spSN4L, "SN4L+Dis": spSND,
		"SN4L+Dis+BTB": spFull, "shotgun": spShot, "confluence": spConf,
	} {
		if sp <= 1.0 {
			t.Errorf("%s speedup %.3f <= 1", name, sp)
		}
	}
	// N8L must not beat N4L (useless prefetches, Figures 4/5).
	if spN8L > spN4L+0.01 {
		t.Errorf("N8L %.3f beats N4L %.3f", spN8L, spN4L)
	}
	// The proposed design tops its own line (Figure 17 breakdown).
	if spFull < spSN4L-0.01 || spFull < spSND-0.01 {
		t.Errorf("full %.3f below its components (SN4L %.3f, SN4L+Dis %.3f)",
			spFull, spSN4L, spSND)
	}
	// And beats the state-of-the-art competitors (Figures 15/16).
	if spFull <= spShot {
		t.Errorf("full %.3f does not beat shotgun %.3f", spFull, spShot)
	}
	if spFull <= spConf {
		t.Errorf("full %.3f does not beat confluence %.3f", spFull, spConf)
	}
	if avgFSCR(dnc) <= avgFSCR(shot) || avgFSCR(dnc) <= avgFSCR(conf) {
		t.Errorf("full FSCR %.3f not above shotgun %.3f / confluence %.3f",
			avgFSCR(dnc), avgFSCR(shot), avgFSCR(conf))
	}
	// Selectivity: SN4L needs far less bandwidth than N4L for comparable
	// coverage (the Figure 5/6 motivation).
	if avgBW(sn4l) >= avgBW(n4l) {
		t.Errorf("SN4L bandwidth %.2f not below N4L %.2f", avgBW(sn4l), avgBW(n4l))
	}
}
