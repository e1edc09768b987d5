package bench

import (
	"fmt"

	"dnc/internal/isa"
	"dnc/internal/llc"
	"dnc/internal/prefetch"
	"dnc/internal/sim"
	"dnc/internal/stats"
)

// Experiment is one regenerated table or figure.
type Experiment struct {
	ID    string
	Title string
	// PaperNote summarises what the paper reports for this experiment.
	PaperNote string
	Table     *stats.Table
	// Headline carries scalar results for benchmark metric reporting.
	Headline map[string]float64
}

// Fig01 regenerates Figure 1: Shotgun's U-BTB footprint miss ratio per
// workload.
func (h *Harness) Fig01() Experiment {
	t := &stats.Table{Header: []string{"workload", "footprint-miss-ratio"}}
	head := map[string]float64{}
	var vals []float64
	for _, w := range h.Workloads() {
		r := h.Shotgun(w)
		if r.Probes == nil {
			t.AddRow(w, unavailable)
			continue
		}
		miss, lookups := r.Probes.UBTBFootprintMiss, r.Probes.UBTBLookups
		ratio := 0.0
		if lookups > 0 {
			ratio = float64(miss) / float64(lookups)
		}
		t.AddRow(w, stats.Pct(ratio))
		head["fpmiss_"+w] = ratio
		vals = append(vals, ratio)
	}
	if len(vals) > 0 {
		head["fpmiss_avg"] = mean(vals)
	}
	return Experiment{
		ID:        "fig01",
		Title:     "Footprint miss ratio in Shotgun's U-BTB",
		PaperNote: "paper: 4-31% across workloads, worst on OLTP (DB A)",
		Table:     t,
		Headline:  head,
	}
}

// Table1 regenerates Table I: the fraction of cycles Shotgun cores stall on
// an empty FTQ.
func (h *Harness) Table1() Experiment {
	t := &stats.Table{Header: []string{"workload", "empty-FTQ stall cycles"}}
	head := map[string]float64{}
	for _, w := range h.Workloads() {
		r := h.Shotgun(w)
		frac := float64(r.M.StallFTQ) / float64(r.M.Cycles)
		t.AddRow(w, stats.Pct(frac))
		head["ftqstall_"+w] = frac
	}
	return Experiment{
		ID:        "table1",
		Title:     "Empty-FTQ stall cycles in Shotgun",
		PaperNote: "paper: 1.6% (OLTP DB B) to 18.9% (OLTP DB A)",
		Table:     t,
		Headline:  head,
	}
}

// Fig02 regenerates Figure 2: the sequential fraction of L1i misses in the
// no-prefetcher baseline.
func (h *Harness) Fig02() Experiment {
	t := &stats.Table{Header: []string{"workload", "sequential-miss fraction"}}
	head := map[string]float64{}
	var vals []float64
	for _, w := range h.Workloads() {
		r := h.Baseline(w)
		f := r.M.SeqMissFraction()
		t.AddRow(w, stats.Pct(f))
		head["seqfrac_"+w] = f
		vals = append(vals, f)
	}
	head["seqfrac_avg"] = mean(vals)
	return Experiment{
		ID:        "fig02",
		Title:     "Fraction of sequential cache misses",
		PaperNote: "paper: 65-80% of L1i misses are sequential",
		Table:     t,
		Headline:  head,
	}
}

// Fig03 regenerates Figure 3: the next-line prefetcher's sequential miss
// coverage over the baseline.
func (h *Harness) Fig03() Experiment {
	t := &stats.Table{Header: []string{"workload", "NL sequential-miss coverage"}}
	head := map[string]float64{}
	var vals []float64
	for _, w := range h.Workloads() {
		base := h.Baseline(w)
		nl := h.run(w, "NL", design("NL"), runOpts{})
		c := sim.SeqMissCoverage(nl, base)
		t.AddRow(w, stats.Pct(c))
		head["nlseqcov_"+w] = c
		vals = append(vals, c)
	}
	head["nlseqcov_avg"] = mean(vals)
	return Experiment{
		ID:        "fig03",
		Title:     "NL sequential miss coverage",
		PaperNote: "paper: 63% on average; timeliness is the limiter",
		Table:     t,
		Headline:  head,
	}
}

// Fig04 regenerates Figure 4: CMAL for NL, N2L, N4L and N8L, averaged over
// workloads.
func (h *Harness) Fig04() Experiment {
	t := &stats.Table{Header: []string{"prefetcher", "CMAL"}}
	head := map[string]float64{}
	for _, name := range []string{"NL", "N2L", "N4L", "N8L"} {
		var vals []float64
		for _, w := range h.Workloads() {
			r := h.run(w, name, design(name), runOpts{})
			vals = append(vals, r.M.CMAL())
		}
		m := mean(vals)
		t.AddRow(name, stats.Pct(m))
		head["cmal_"+name] = m
	}
	return Experiment{
		ID:        "fig04",
		Title:     "Covered memory access latency (CMAL) of sequential prefetchers",
		PaperNote: "paper: NL 65%, N2L 80%, N4L 88%, N8L 85% (N8L regresses)",
		Table:     t,
		Headline:  head,
	}
}

// Fig05 regenerates Figure 5: the LLC-latency and external-bandwidth side
// effects of deeper sequential prefetching, normalized to the baseline.
func (h *Harness) Fig05() Experiment {
	t := &stats.Table{Header: []string{"prefetcher", "LLC latency (norm.)", "L1i ext. bandwidth (norm.)"}}
	head := map[string]float64{}
	for _, name := range []string{"NL", "N2L", "N4L", "N8L"} {
		var lat, bw []float64
		for _, w := range h.Workloads() {
			base := h.Baseline(w)
			r := h.run(w, name, design(name), runOpts{})
			if bl := base.M.AvgLLCLatency(); bl > 0 {
				lat = append(lat, r.M.AvgLLCLatency()/bl)
			}
			bw = append(bw, sim.BandwidthRatio(r, base))
		}
		ml, mb := mean(lat), mean(bw)
		t.AddRow(name, stats.F2(ml), stats.F2(mb))
		head["llclat_"+name] = ml
		head["bw_"+name] = mb
	}
	return Experiment{
		ID:        "fig05",
		Title:     "Side effects of useless prefetches",
		PaperNote: "paper: N8L raises LLC latency 28% and bandwidth up to 7.2x",
		Table:     t,
		Headline:  head,
	}
}

// Fig06 regenerates Figure 6: next-four-block access-pattern
// predictability.
func (h *Harness) Fig06() Experiment {
	t := &stats.Table{Header: []string{"workload", "pattern predictability"}}
	head := map[string]float64{}
	var vals []float64
	for _, w := range h.Workloads() {
		p := NextBlockPredictability(w)
		t.AddRow(w, stats.Pct(p))
		head["fig6_"+w] = p
		vals = append(vals, p)
	}
	head["fig6_avg"] = mean(vals)
	return Experiment{
		ID:        "fig06",
		Title:     "Predictability of the next-four-block access pattern",
		PaperNote: "paper: 92% on average",
		Table:     t,
		Headline:  head,
	}
}

// Fig07 regenerates Figure 7: predictability of the branch responsible for
// each block's discontinuities.
func (h *Harness) Fig07() Experiment {
	t := &stats.Table{Header: []string{"workload", "same-branch fraction"}}
	head := map[string]float64{}
	var vals []float64
	for _, w := range h.Workloads() {
		p := DiscontinuityPredictability(w)
		t.AddRow(w, stats.Pct(p))
		head["fig7_"+w] = p
		vals = append(vals, p)
	}
	head["fig7_avg"] = mean(vals)
	return Experiment{
		ID:        "fig07",
		Title:     "Predictability of the discontinuity branch",
		PaperNote: "paper: 78-83%, average 80%",
		Table:     t,
		Headline:  head,
	}
}

// Fig08 regenerates Figure 8: uncovered branches vs. branch-footprint
// capacity.
func (h *Harness) Fig08() Experiment {
	t := &stats.Table{Header: []string{"branches per BF", "uncovered branches (avg)"}}
	head := map[string]float64{}
	var acc [4][]float64
	for _, w := range h.Workloads() {
		u := BranchesPerBlock(w)
		for i := range u {
			acc[i] = append(acc[i], u[i])
		}
	}
	for i := range acc {
		m := mean(acc[i])
		t.AddRow(fmt.Sprint(i+1), stats.Pct(m))
		head[fmt.Sprintf("uncov_%d", i+1)] = m
	}
	return Experiment{
		ID:        "fig08",
		Title:     "Uncovered branches vs. branches stored per branch footprint",
		PaperNote: "paper: four branches per BF cover almost all branches",
		Table:     t,
		Headline:  head,
	}
}

// Fig09 regenerates Figure 9: uncovered branch footprints vs. the number of
// BFs stored per LLC set, using the DV-LLC in variable-length mode.
func (h *Harness) Fig09() Experiment {
	t := &stats.Table{Header: []string{"BFs per set", "uncovered BFs (avg)"}}
	head := map[string]float64{}
	for _, k := range []int{1, 2, 3, 4} {
		var vals []float64
		for _, w := range h.Workloads() {
			lc := llc.DefaultConfig()
			lc.DVEnabled = true
			lc.BFsPerSet = k
			r := h.run(w, fmt.Sprintf("dvllc-bf%d", k), design("baseline"),
				runOpts{mode: isa.Variable, llcCfg: &lc})
			if r.LLCStats.BFStores > 0 {
				vals = append(vals, float64(r.LLCStats.BFStoreFails)/float64(r.LLCStats.BFStores))
			}
		}
		m := mean(vals)
		t.AddRow(fmt.Sprint(k), stats.Pct(m))
		head[fmt.Sprintf("uncovbf_%d", k)] = m
	}
	return Experiment{
		ID:        "fig09",
		Title:     "Uncovered branch footprints vs. BFs per LLC set",
		PaperNote: "paper: 2 BFs/set leave ~2%, 3 leave 0.4%, 4 leave 0.2%",
		Table:     t,
		Headline:  head,
	}
}

// Table2 regenerates Table II: the storage/complexity comparison, with
// storage computed from the implemented configurations.
func (h *Harness) Table2() Experiment {
	t := &stats.Table{Header: []string{"design", "storage", "BTB modification", "L1i prefetch buffer", "modular"}}
	kb := func(d prefetch.Design) string {
		return fmt.Sprintf("%.1f KB", float64(d.StorageBits())/8/1024)
	}
	full, shot, conf := design("SN4L+Dis+BTB")(), design("shotgun")(), design("confluence")()
	t.AddRow("SN4L+Dis+BTB", kb(full), "no", "no", "yes")
	t.AddRow("Shotgun", kb(shot), "yes (split U/C/RIB)", "yes (64-entry)", "no")
	t.AddRow("Confluence", kb(conf), "yes (AirBTB)", "no", "no")
	return Experiment{
		ID:        "table2",
		Title:     "SN4L+Dis+BTB and prior work",
		PaperNote: "paper: 7.6 KB vs 6 KB vs 200+ KB virtualized in LLC",
		Table:     t,
		Headline: map[string]float64{
			"kb_full":       float64(full.StorageBits()) / 8 / 1024,
			"kb_shotgun":    float64(shot.StorageBits()) / 8 / 1024,
			"kb_confluence": float64(conf.StorageBits()) / 8 / 1024,
		},
	}
}

// Fig11 regenerates Figure 11: miss coverage as the SeqTable and DisTable
// sizes grow, relative to unlimited tables.
func (h *Harness) Fig11() Experiment {
	t := &stats.Table{Header: []string{"table", "entries", "coverage", "of unlimited"}}
	head := map[string]float64{}

	seqCov := func(entries int) float64 {
		var vals []float64
		key := fmt.Sprintf("sn4l-seq%d", entries)
		for _, w := range h.Workloads() {
			r := h.run(w, key, func() prefetch.Design {
				return prefetch.NewSN4L(entries, 2048)
			}, runOpts{})
			vals = append(vals, sim.MissCoverage(r, h.Baseline(w)))
		}
		return mean(vals)
	}
	unlimitedSeq := seqCov(0)
	for _, e := range []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10} {
		c := seqCov(e)
		rel := 0.0
		if unlimitedSeq > 0 {
			rel = c / unlimitedSeq
		}
		t.AddRow("SeqTable", fmt.Sprintf("%dK", e>>10), stats.Pct(c), stats.Pct(rel))
		head[fmt.Sprintf("seqcov_%dk", e>>10)] = rel
	}
	t.AddRow("SeqTable", "unlimited", stats.Pct(unlimitedSeq), "100%")

	disCov := func(entries int) float64 {
		var vals []float64
		key := fmt.Sprintf("snd-dis%d", entries)
		for _, w := range h.Workloads() {
			r := h.run(w, key, func() prefetch.Design {
				c := prefetch.DefaultProactiveConfig()
				c.DisEntries = entries
				return prefetch.NewProactive(c)
			}, runOpts{})
			vals = append(vals, sim.MissCoverage(r, h.Baseline(w)))
		}
		return mean(vals)
	}
	unlimitedDis := disCov(0)
	for _, e := range []int{1 << 10, 2 << 10, 4 << 10, 8 << 10} {
		c := disCov(e)
		rel := 0.0
		if unlimitedDis > 0 {
			rel = c / unlimitedDis
		}
		t.AddRow("DisTable", fmt.Sprintf("%dK", e>>10), stats.Pct(c), stats.Pct(rel))
		head[fmt.Sprintf("discov_%dk", e>>10)] = rel
	}
	t.AddRow("DisTable", "unlimited", stats.Pct(unlimitedDis), "100%")

	return Experiment{
		ID:        "fig11",
		Title:     "Miss coverage vs. SeqTable/DisTable size",
		PaperNote: "paper: 16K SeqTable reaches 96% of unlimited; 4K DisTable 97%",
		Table:     t,
		Headline:  head,
	}
}

// Fig12 regenerates Figure 12: DisTable overprediction under tagless,
// 4-bit partially tagged, and fully tagged policies.
func (h *Harness) Fig12() Experiment {
	t := &stats.Table{Header: []string{"tagging", "overprediction"}}
	head := map[string]float64{}
	for _, pol := range []struct {
		name string
		bits uint
	}{{"tagless", 0}, {"4bit-partial", 4}, {"full-tag", 16}} {
		var vals []float64
		key := fmt.Sprintf("snd-tag%d", pol.bits)
		for _, w := range h.Workloads() {
			r := h.run(w, key, func() prefetch.Design {
				c := prefetch.DefaultProactiveConfig()
				c.DisTagBits = pol.bits
				return prefetch.NewProactive(c)
			}, runOpts{})
			if r.Probes == nil {
				continue
			}
			replay := prefetch.ReplayStats{
				TableHits: r.Probes.ReplayTableHits,
				NotBranch: r.Probes.ReplayNotBranch,
			}
			vals = append(vals, replay.Overprediction())
		}
		if len(vals) == 0 {
			t.AddRow(pol.name, unavailable)
			continue
		}
		m := mean(vals)
		t.AddRow(pol.name, stats.Pct(m))
		head["overpred_"+pol.name] = m
	}
	return Experiment{
		ID:        "fig12",
		Title:     "Overprediction of DisTable tagging policies",
		PaperNote: "paper: tagless overpredicts heavily; 4-bit partial tags approach a full tag",
		Table:     t,
		Headline:  head,
	}
}

// Fig13 regenerates Figure 13: CMAL of N4L, SN4L, Dis and SN4L+Dis+BTB.
func (h *Harness) Fig13() Experiment {
	t := &stats.Table{Header: []string{"prefetcher", "CMAL"}}
	head := map[string]float64{}
	designs := []struct {
		name string
		key  string
		nd   func() prefetch.Design
	}{
		{"N4L", "N4L", design("N4L")},
		{"SN4L", "sn4l", design("SN4L")},
		{"Dis", "dis", design("Dis")},
		{"SN4L+Dis+BTB", "full", design("SN4L+Dis+BTB")},
	}
	for _, d := range designs {
		var vals []float64
		for _, w := range h.Workloads() {
			r := h.run(w, d.key, d.nd, runOpts{})
			vals = append(vals, r.M.CMAL())
		}
		m := mean(vals)
		t.AddRow(d.name, stats.Pct(m))
		head["cmal13_"+d.name] = m
	}
	return Experiment{
		ID:        "fig13",
		Title:     "Timeliness (CMAL) of the proposed prefetchers",
		PaperNote: "paper: N4L 88%, SN4L 93%, Dis 89%, SN4L+Dis+BTB 91%",
		Table:     t,
		Headline:  head,
	}
}

// Fig14 regenerates Figure 14: L1i cache lookups normalized to the
// baseline, including the RLU-size dependence of the proposed design.
func (h *Harness) Fig14() Experiment {
	t := &stats.Table{Header: []string{"design", "cache lookups (norm.)"}}
	head := map[string]float64{}

	rluVariant := func(entries int) func() prefetch.Design {
		return func() prefetch.Design {
			c := prefetch.DefaultProactiveConfig()
			c.WithBTBPrefetch = true
			c.RLUEntries = entries
			return prefetch.NewProactive(c)
		}
	}
	rows := []struct {
		name string
		key  string
		nd   func() prefetch.Design
		pfb  int
	}{
		{"SN4L+Dis+BTB (no RLU)", "full-rlu0", rluVariant(0), 0},
		{"SN4L+Dis+BTB (RLU 4)", "full-rlu4", rluVariant(4), 0},
		{"SN4L+Dis+BTB (RLU 8)", "full", design("SN4L+Dis+BTB"), 0},
		{"SN4L+Dis+BTB (RLU 16)", "full-rlu16", rluVariant(16), 0},
		{"confluence", "confluence", design("confluence"), 0},
		{"shotgun", "shotgun", design("shotgun"), 64},
	}
	for _, d := range rows {
		var vals []float64
		for _, w := range h.Workloads() {
			r := h.run(w, d.key, d.nd, runOpts{pfbEntries: d.pfb})
			vals = append(vals, sim.LookupRatio(r, h.Baseline(w)))
		}
		m := mean(vals)
		t.AddRow(d.name, stats.F2(m))
		head["lookups_"+d.key] = m
	}
	return Experiment{
		ID:        "fig14",
		Title:     "Cache lookups, normalized to no prefetcher",
		PaperNote: "paper: an 8-entry RLU suffices; Confluence lowest; ours comparable to Shotgun",
		Table:     t,
		Headline:  head,
	}
}

// Fig15 regenerates Figure 15: frontend stall cycle reduction.
func (h *Harness) Fig15() Experiment {
	t := &stats.Table{Header: []string{"workload", "SN4L+Dis+BTB", "shotgun", "confluence"}}
	head := map[string]float64{}
	var f, s, c []float64
	for _, w := range h.Workloads() {
		base := h.Baseline(w)
		fv := sim.FSCR(h.Full(w), base)
		sv := sim.FSCR(h.Shotgun(w), base)
		cv := sim.FSCR(h.Confluence(w), base)
		t.AddRow(w, stats.Pct(fv), stats.Pct(sv), stats.Pct(cv))
		f, s, c = append(f, fv), append(s, sv), append(c, cv)
	}
	t.AddRow("average", stats.Pct(mean(f)), stats.Pct(mean(s)), stats.Pct(mean(c)))
	head["fscr_full"] = mean(f)
	head["fscr_shotgun"] = mean(s)
	head["fscr_confluence"] = mean(c)
	return Experiment{
		ID:        "fig15",
		Title:     "Frontend stall cycle reduction (FSCR)",
		PaperNote: "paper: ours 61%, Shotgun 35%, Confluence 32%",
		Table:     t,
		Headline:  head,
	}
}

// Fig16 regenerates Figure 16: speedup over the no-prefetch baseline.
func (h *Harness) Fig16() Experiment {
	t := &stats.Table{Header: []string{"workload", "SN4L+Dis+BTB", "shotgun", "confluence", "boomerang"}}
	head := map[string]float64{}
	var f, s, c, b []float64
	for _, w := range h.Workloads() {
		base := h.Baseline(w)
		fv := sim.Speedup(h.Full(w), base)
		sv := sim.Speedup(h.Shotgun(w), base)
		cv := sim.Speedup(h.Confluence(w), base)
		bv := sim.Speedup(h.run(w, "boomerang", design("boomerang"), runOpts{}), base)
		t.AddRow(w, stats.F2(fv), stats.F2(sv), stats.F2(cv), stats.F2(bv))
		f, s, c, b = append(f, fv), append(s, sv), append(c, cv), append(b, bv)
	}
	t.AddRow("average", stats.F2(mean(f)), stats.F2(mean(s)), stats.F2(mean(c)), stats.F2(mean(b)))
	head["speedup_full"] = mean(f)
	head["speedup_shotgun"] = mean(s)
	head["speedup_confluence"] = mean(c)
	head["speedup_boomerang"] = mean(b)
	return Experiment{
		ID:        "fig16",
		Title:     "Speedup over a system with no instruction/BTB prefetcher",
		PaperNote: "paper: ours 19% avg (7-50%), 5% over Shotgun avg, 16% on OLTP DB A",
		Table:     t,
		Headline:  head,
	}
}

// Fig17 regenerates Figure 17: the performance breakdown of the proposed
// design against perfect-frontend references.
func (h *Harness) Fig17() Experiment {
	t := &stats.Table{Header: []string{"configuration", "speedup (avg)"}}
	head := map[string]float64{}
	rows := []struct {
		name string
		key  string
		nd   func() prefetch.Design
		o    runOpts
	}{
		{"N4L", "N4L", design("N4L"), runOpts{}},
		{"SN4L", "sn4l", design("SN4L"), runOpts{}},
		{"SN4L+Dis", "snd", design("SN4L+Dis"), runOpts{}},
		{"SN4L+Dis+BTB", "full", design("SN4L+Dis+BTB"), runOpts{}},
		{"Perfect L1i", "perfect", design("baseline"), runOpts{perfectL1i: true}},
		{"Perfect L1i + BTB inf", "perfect-btb", design("baseline"), runOpts{perfectL1i: true, perfectBTB: true}},
	}
	for _, d := range rows {
		var vals []float64
		for _, w := range h.Workloads() {
			r := h.run(w, d.key, d.nd, d.o)
			vals = append(vals, sim.Speedup(r, h.Baseline(w)))
		}
		m := mean(vals)
		t.AddRow(d.name, stats.F2(m))
		head["sp17_"+d.key] = m
	}
	return Experiment{
		ID:        "fig17",
		Title:     "Performance breakdown vs. perfect frontend",
		PaperNote: "paper: SN4L 13%, SN4L+Dis 15%, full 19% ~ Perfect L1i; +BTBinf 29%",
		Table:     t,
		Headline:  head,
	}
}

// Fig18 regenerates Figure 18: the speedup of the proposed design over
// Shotgun as the BTB budget shrinks (modelling larger commercial
// footprints).
func (h *Harness) Fig18() Experiment {
	t := &stats.Table{Header: []string{"BTB scale", "speedup over shotgun (avg)"}}
	head := map[string]float64{}
	for _, sc := range []struct {
		label    string
		num, den int
	}{{"1/4x", 1, 4}, {"1/2x", 1, 2}, {"1x", 1, 1}, {"2x", 2, 1}} {
		var vals []float64
		for _, w := range h.Workloads() {
			shot := h.run(w, "shotgun-"+sc.label, func() prefetch.Design {
				c := prefetch.DefaultShotgunDesignConfig()
				c.BTB = scaledShotgunBTB(sc.num, sc.den)
				return prefetch.NewShotgun(c)
			}, runOpts{pfbEntries: 64})
			full := h.run(w, "full-"+sc.label, func() prefetch.Design {
				c := prefetch.DefaultProactiveConfig()
				c.WithBTBPrefetch = true
				c.BTBEntries = scaleEntries(2048, sc.num, sc.den)
				return prefetch.NewProactive(c)
			}, runOpts{})
			vals = append(vals, full.M.IPC()/shot.M.IPC())
		}
		m := mean(vals)
		t.AddRow(sc.label, stats.F2(m))
		head["fig18_"+sc.label] = m
	}
	return Experiment{
		ID:        "fig18",
		Title:     "Speedup of SN4L+Dis+BTB over Shotgun with varying BTB sizes",
		PaperNote: "paper: the gap widens as the BTB shrinks",
		Table:     t,
		Headline:  head,
	}
}

// SecJ regenerates Section VII.J: the DV-LLC's effect on LLC hit ratios in
// variable-length mode. Beside each run's hit ratios it shows how full the
// LLC was when the measurement window opened (valid lines, and their share
// of the LLC's lines) and how many lines the window evicted: DV on vs off
// can differ only once a set is full.
func (h *Harness) SecJ() Experiment {
	t := &stats.Table{Header: []string{"workload", "inst hit (conv)", "inst hit (DV)", "data hit (conv)", "data hit (DV)",
		"fill (conv)", "evictions (conv)", "fill (DV)", "evictions (DV)"}}
	head := map[string]float64{}
	var dDrop []float64
	for _, w := range h.Workloads() {
		conv := llc.DefaultConfig()
		dv := llc.DefaultConfig()
		dv.DVEnabled = true
		rc := h.run(w, "vl-conv", design("baseline"), runOpts{mode: isa.Variable, llcCfg: &conv})
		rd := h.run(w, "vl-dv", design("baseline"), runOpts{mode: isa.Variable, llcCfg: &dv})
		ratio := func(hit, acc uint64) float64 {
			if acc == 0 {
				return 0
			}
			return float64(hit) / float64(acc)
		}
		ci := ratio(rc.LLCStats.InstHits, rc.LLCStats.InstAccesses)
		di := ratio(rd.LLCStats.InstHits, rd.LLCStats.InstAccesses)
		cd := ratio(rc.LLCStats.DataHits, rc.LLCStats.DataAccesses)
		dd := ratio(rd.LLCStats.DataHits, rd.LLCStats.DataAccesses)
		pct3 := func(v float64) string { return fmt.Sprintf("%.3f%%", v*100) }
		fill := func(r sim.Result, cfg llc.Config) string {
			lines := cfg.Normalized().SizeBytes / isa.BlockBytes
			return fmt.Sprintf("%d (%.1f%%)", r.LLCOccupancy[0], 100*float64(r.LLCOccupancy[0])/float64(lines))
		}
		t.AddRow(w, pct3(ci), pct3(di), pct3(cd), pct3(dd),
			fill(rc, conv), fmt.Sprint(rc.LLCStats.Evictions), fill(rd, dv), fmt.Sprint(rd.LLCStats.Evictions))
		dDrop = append(dDrop, cd-dd)
	}
	head["dvllc_datahit_drop"] = mean(dDrop)
	return Experiment{
		ID:        "secj",
		Title:     "DV-LLC vs. conventional LLC hit ratios (VL-ISA)",
		PaperNote: "paper: instruction hit ratio unchanged; data hit ratio drops at most 0.1%",
		Table:     t,
		Headline:  head,
	}
}

// scaledShotgunBTB scales Shotgun's tables (Fig. 18 helper).
func scaledShotgunBTB(num, den int) (c btbShotgunConfig) {
	return btbScale(num, den)
}
