package bench

import (
	"fmt"
	"math"

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

// experiments is every experiment, one row each: the paper's tables and
// figures in paper order, then the ablations beyond the paper (each a
// design choice DESIGN.md calls out, swept in isolation on SN4L+Dis+BTB).
// A body fills the table's rows under header, and the headline numbers.
var experiments = []struct {
	id, title, note string
	ablation        bool
	header          []string
	body            func(h *Harness, t *stats.Table, head map[string]float64)
}{
	{id: "fig01", title: "Footprint miss ratio in Shotgun's U-BTB",
		note:   "paper: 4-31% across workloads, worst on OLTP (DB A)",
		header: []string{"workload", "footprint-miss-ratio"},
		body: func(h *Harness, t *stats.Table, head map[string]float64) {
			h.perWorkload(t, head, "fpmiss_", true, func(w string) float64 {
				p := h.run(w, shotgun).Probes
				if p == nil {
					return math.NaN()
				}
				return ratio(p.UBTBFootprintMiss, p.UBTBLookups)
			})
		}},
	{id: "table1", title: "Empty-FTQ stall cycles in Shotgun",
		note:   "paper: 1.6% (OLTP DB B) to 18.9% (OLTP DB A)",
		header: []string{"workload", "empty-FTQ stall cycles"},
		body: func(h *Harness, t *stats.Table, head map[string]float64) {
			h.perWorkload(t, head, "ftqstall_", false, func(w string) float64 {
				r := h.run(w, shotgun)
				return float64(r.M.StallFTQ) / float64(r.M.Cycles)
			})
		}},
	{id: "fig02", title: "Fraction of sequential cache misses",
		note:   "paper: 65-80% of L1i misses are sequential",
		header: []string{"workload", "sequential-miss fraction"},
		body: func(h *Harness, t *stats.Table, head map[string]float64) {
			h.perWorkload(t, head, "seqfrac_", true, func(w string) float64 {
				r := h.run(w, baseline)
				return r.M.SeqMissFraction()
			})
		}},
	{id: "fig03", title: "NL sequential miss coverage",
		note:   "paper: 63% on average; timeliness is the limiter",
		header: []string{"workload", "NL sequential-miss coverage"},
		body: func(h *Harness, t *stats.Table, head map[string]float64) {
			h.perWorkload(t, head, "nlseqcov_", true, func(w string) float64 {
				return sim.SeqMissCoverage(h.run(w, spec{design: "NL"}), h.run(w, baseline))
			})
		}},
	{id: "fig04", title: "Covered memory access latency (CMAL) of sequential prefetchers",
		note:   "paper: NL 65%, N2L 80%, N4L 88%, N8L 85% (N8L regresses)",
		header: []string{"prefetcher", "CMAL"},
		body: func(h *Harness, t *stats.Table, head map[string]float64) {
			h.means(t, head, []column{{"cmal_", spec{}, cmal, stats.Pct}}, catalogRows("NL", "N2L", "N4L", "N8L")...)
		}},
	{id: "fig05", title: "Side effects of useless prefetches",
		note:   "paper: N8L raises LLC latency 28% and bandwidth up to 7.2x",
		header: []string{"prefetcher", "LLC latency (norm.)", "L1i ext. bandwidth (norm.)"},
		body: func(h *Harness, t *stats.Table, head map[string]float64) {
			h.means(t, head, []column{
				{"llclat_", baseline, llcLatency, stats.F2},
				{"bw_", baseline, sim.BandwidthRatio, stats.F2},
			}, catalogRows("NL", "N2L", "N4L", "N8L")...)
		}},
	{id: "fig06", title: "Predictability of the next-four-block access pattern",
		note:   "paper: 92% on average",
		header: []string{"workload", "pattern predictability"},
		body: func(h *Harness, t *stats.Table, head map[string]float64) {
			h.perWorkload(t, head, "fig6_", true, NextBlockPredictability)
		}},
	{id: "fig07", title: "Predictability of the discontinuity branch",
		note:   "paper: 78-83%, average 80%",
		header: []string{"workload", "same-branch fraction"},
		body: func(h *Harness, t *stats.Table, head map[string]float64) {
			h.perWorkload(t, head, "fig7_", true, DiscontinuityPredictability)
		}},
	{id: "fig08", title: "Uncovered branches vs. branches stored per branch footprint",
		note:   "paper: four branches per BF cover almost all branches",
		header: []string{"branches per BF", "uncovered branches (avg)"},
		body: func(h *Harness, t *stats.Table, head map[string]float64) {
			var acc [4][]float64
			for _, w := range h.Workloads() {
				for i, u := range BranchesPerBlock(w) {
					acc[i] = append(acc[i], u)
				}
			}
			for i := range acc {
				m, _ := mean(acc[i])
				t.AddRow(fmt.Sprint(i+1), stats.Pct(m))
				head[fmt.Sprintf("uncov_%d", i+1)] = m
			}
		}},
	{id: "fig09", title: "Uncovered branch footprints vs. BFs per LLC set",
		note:   "paper: 2 BFs/set leave ~2%, 3 leave 0.4%, 4 leave 0.2%",
		header: []string{"BFs per set", "uncovered BFs (avg)"},
		body: func(h *Harness, t *stats.Table, head map[string]float64) {
			// The DV-LLC in variable-length mode, where it is on by default.
			h.means(t, head, []column{{"uncovbf_", spec{}, uncoveredBFs, stats.Pct}},
				sweep(spec{design: "baseline", mode: isa.Variable}, bfsPerSet, 1, 2, 3, 4)...)
		}},
	{id: "table2", title: "SN4L+Dis+BTB and prior work",
		note:   "paper: 7.6 KB vs 6 KB vs 200+ KB virtualized in LLC",
		header: []string{"design", "storage", "BTB modification", "L1i prefetch buffer", "modular"},
		body: func(_ *Harness, t *stats.Table, head map[string]float64) {
			// Storage is computed from the implemented configurations.
			kb := func(s spec, key string) string {
				head["kb_"+key] = float64(s.build()().StorageBits()) / 8 / 1024
				return fmt.Sprintf("%.1f KB", head["kb_"+key])
			}
			pfb := shotgun.build()().(prefetch.Bufferer).BufferEntries()
			t.AddRow("SN4L+Dis+BTB", kb(full, "full"), "no", "no", "yes")
			t.AddRow("Shotgun", kb(shotgun, "shotgun"), "yes (split U/C/RIB)", fmt.Sprintf("yes (%d-entry)", pfb), "no")
			t.AddRow("Confluence", kb(confluence, "confluence"), "yes (AirBTB)", "no", "no")
		}},
	{id: "fig11", title: "Miss coverage vs. SeqTable/DisTable size",
		note:   "paper: 16K SeqTable reaches 96% of unlimited; 4K DisTable 97%",
		header: []string{"table", "entries", "coverage", "of unlimited"},
		body: func(h *Harness, t *stats.Table, head map[string]float64) {
			for _, tab := range []struct {
				name, head string
				s          spec
				k          knob
				sizes      []int
			}{
				{"SeqTable", "seqcov_", spec{design: "SN4L"}, seqEntries, []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}},
				{"DisTable", "discov_", spec{design: "SN4L+Dis"}, disEntries, []int{1 << 10, 2 << 10, 4 << 10, 8 << 10}},
			} {
				coverage := func(entries int) float64 {
					m, _ := h.meanOver(tab.s.with(tab.k, entries), baseline, sim.MissCoverage)
					return m
				}
				unlimited := coverage(0)
				for _, e := range tab.sizes {
					c := coverage(e)
					rel := 0.0
					if unlimited > 0 {
						rel = c / unlimited
					}
					t.AddRow(tab.name, fmt.Sprintf("%dK", e>>10), stats.Pct(c), stats.Pct(rel))
					head[fmt.Sprintf("%s%dk", tab.head, e>>10)] = rel
				}
				t.AddRow(tab.name, "unlimited", stats.Pct(unlimited), "100%")
			}
		}},
	{id: "fig12", title: "Overprediction of DisTable tagging policies",
		note:   "paper: tagless overpredicts heavily; 4-bit partial tags approach a full tag",
		header: []string{"tagging", "overprediction"},
		body: func(h *Harness, t *stats.Table, head map[string]float64) {
			for _, pol := range []struct {
				name string
				bits int
			}{{"tagless", 0}, {"4bit-partial", 4}, {"full-tag", 16}} {
				m, ok := h.meanOver(spec{design: "SN4L+Dis"}.with(disTagBits, pol.bits), spec{}, overprediction)
				if !ok {
					t.AddRow(pol.name, unavailable)
					continue
				}
				t.AddRow(pol.name, stats.Pct(m))
				head["overpred_"+pol.name] = m
			}
		}},
	{id: "fig13", title: "Timeliness (CMAL) of the proposed prefetchers",
		note:   "paper: N4L 88%, SN4L 93%, Dis 89%, SN4L+Dis+BTB 91%",
		header: []string{"prefetcher", "CMAL"},
		body: func(h *Harness, t *stats.Table, head map[string]float64) {
			h.means(t, head, []column{{"cmal13_", spec{}, cmal, stats.Pct}}, catalogRows("N4L", "SN4L", "Dis", "SN4L+Dis+BTB")...)
		}},
	{id: "fig14", title: "Cache lookups, normalized to no prefetcher",
		note:   "paper: an 8-entry RLU suffices; Confluence lowest; ours comparable to Shotgun",
		header: []string{"design", "cache lookups (norm.)"},
		body: func(h *Harness, t *stats.Table, head map[string]float64) {
			h.means(t, head, []column{{"lookups_", baseline, sim.LookupRatio, stats.F2}},
				row{"SN4L+Dis+BTB (no RLU)", "full-rlu0", full.with(rluEntries, 0)},
				row{"SN4L+Dis+BTB (RLU 4)", "full-rlu4", full.with(rluEntries, 4)},
				row{"SN4L+Dis+BTB (RLU 8)", "full", full},
				row{"SN4L+Dis+BTB (RLU 16)", "full-rlu16", full.with(rluEntries, 16)},
				row{"confluence", "confluence", confluence},
				row{"shotgun", "shotgun", shotgun})
		}},
	{id: "fig15", title: "Frontend stall cycle reduction (FSCR)",
		note:   "paper: ours 61%, Shotgun 35%, Confluence 32%",
		header: []string{"workload", "SN4L+Dis+BTB", "shotgun", "confluence"},
		body: func(h *Harness, t *stats.Table, head map[string]float64) {
			h.versus(t, head, "fscr_", sim.FSCR, stats.Pct,
				row{key: "full", s: full}, row{key: "shotgun", s: shotgun}, row{key: "confluence", s: confluence})
		}},
	{id: "fig16", title: "Speedup over a system with no instruction/BTB prefetcher",
		note:   "paper: ours 19% avg (7-50%), 5% over Shotgun avg, 16% on OLTP DB A",
		header: []string{"workload", "SN4L+Dis+BTB", "shotgun", "confluence", "boomerang"},
		body: func(h *Harness, t *stats.Table, head map[string]float64) {
			h.versus(t, head, "speedup_", sim.Speedup, stats.F2,
				row{key: "full", s: full}, row{key: "shotgun", s: shotgun}, row{key: "confluence", s: confluence},
				row{key: "boomerang", s: spec{design: "boomerang"}})
		}},
	{id: "fig17", title: "Performance breakdown vs. perfect frontend",
		note:   "paper: SN4L 13%, SN4L+Dis 15%, full 19% ~ Perfect L1i; +BTBinf 29%",
		header: []string{"configuration", "speedup (avg)"},
		body: func(h *Harness, t *stats.Table, head map[string]float64) {
			perfect := baseline.with(perfectL1i, 1)
			h.means(t, head, []column{{"sp17_", baseline, sim.Speedup, stats.F2}},
				row{"N4L", "N4L", spec{design: "N4L"}},
				row{"SN4L", "sn4l", spec{design: "SN4L"}},
				row{"SN4L+Dis", "snd", spec{design: "SN4L+Dis"}},
				row{"SN4L+Dis+BTB", "full", full},
				row{"Perfect L1i", "perfect", perfect},
				row{"Perfect L1i + BTB inf", "perfect-btb", perfect.with(perfectBTB, 1)})
		}},
	{id: "fig18", title: "Speedup of SN4L+Dis+BTB over Shotgun with varying BTB sizes",
		note:   "paper: the gap widens as the BTB shrinks",
		header: []string{"BTB scale", "speedup over shotgun (avg)"},
		body: func(h *Harness, t *stats.Table, head map[string]float64) {
			// A shrinking BTB budget models larger commercial footprints.
			for _, sc := range []struct {
				label   string
				percent int
			}{{"1/4x", 25}, {"1/2x", 50}, {"1x", 100}, {"2x", 200}} {
				m, _ := h.meanOver(full.with(btbPercent, sc.percent), shotgun.with(btbPercent, sc.percent),
					func(r, shot sim.Result) float64 { return r.M.IPC() / shot.M.IPC() })
				t.AddRow(sc.label, stats.F2(m))
				head["fig18_"+sc.label] = m
			}
		}},
	{id: "secj", title: "DV-LLC vs. conventional LLC hit ratios (VL-ISA)",
		note: "paper: instruction hit ratio unchanged; data hit ratio drops at most 0.1%",
		header: []string{"workload", "inst hit (conv)", "inst hit (DV)", "data hit (conv)", "data hit (DV)",
			"fill (conv)", "evictions (conv)", "fill (DV)", "evictions (DV)"},
		body: func(h *Harness, t *stats.Table, head map[string]float64) {
			// Beside each run's hit ratios: how full the LLC was when the
			// measurement window opened (valid lines, and their share of the
			// LLC's lines) and how many lines the window evicted. DV on vs
			// off can differ only once a set is full.
			dv := spec{design: "baseline", mode: isa.Variable}
			conv := dv.with(dvLLC, 0)
			lines := llc.DefaultConfig().SizeBytes / isa.BlockBytes
			pct3 := func(v float64) string { return fmt.Sprintf("%.3f%%", v*100) }
			fill := func(r sim.Result) string {
				return fmt.Sprintf("%d (%.1f%%)", r.LLCOccupancy[0], 100*float64(r.LLCOccupancy[0])/float64(lines))
			}
			var drop []float64
			for _, w := range h.Workloads() {
				rc, rd := h.run(w, conv), h.run(w, dv)
				c, d := rc.LLCStats, rd.LLCStats
				cd, dd := ratio(c.DataHits, c.DataAccesses), ratio(d.DataHits, d.DataAccesses)
				t.AddRow(w, pct3(ratio(c.InstHits, c.InstAccesses)), pct3(ratio(d.InstHits, d.InstAccesses)), pct3(cd), pct3(dd),
					fill(rc), fmt.Sprint(c.Evictions), fill(rd), fmt.Sprint(d.Evictions))
				drop = append(drop, cd-dd)
			}
			head["dvllc_datahit_drop"], _ = mean(drop)
		}},
	{id: "abl-depth", ablation: true, title: "Ablation: proactive chain depth",
		note:   "paper: four is a reasonable termination threshold",
		header: []string{"max chain depth", "speedup (avg)", "bandwidth (norm.)"},
		body: func(h *Harness, t *stats.Table, head map[string]float64) {
			h.means(t, head, []column{
				{"depth_", baseline, sim.Speedup, stats.F2},
				{"", baseline, sim.BandwidthRatio, stats.F2},
			}, sweep(full, chainDepth, 1, 2, 4, 8)...)
		}},
	{id: "abl-rlu", ablation: true, title: "Ablation: RLU size vs. cache lookups",
		note:   "paper: 8 entries filter repetitive lookups effectively",
		header: []string{"RLU entries", "speedup (avg)", "cache lookups (norm.)"},
		body: func(h *Harness, t *stats.Table, head map[string]float64) {
			h.means(t, head, []column{
				{"", baseline, sim.Speedup, stats.F2},
				{"rlu_", baseline, sim.LookupRatio, stats.F2},
			}, sweep(full, rluEntries, 0, 4, 8, 16)...)
		}},
	{id: "abl-queues", ablation: true, title: "Ablation: proactive queue depth",
		note:   "design choice: 16-entry SeqQueue/DisQueue/RLUQueue",
		header: []string{"queue depth", "speedup (avg)"},
		body: func(h *Harness, t *stats.Table, head map[string]float64) {
			h.means(t, head, []column{{"qdepth_", baseline, sim.Speedup, stats.F2}}, sweep(full, queueDepth, 4, 8, 16, 32)...)
		}},
}

// unavailable is what a table cell reads when its run carries no design
// probes (Result.Probes): the configuration failed, or its result was
// restored from a journal, which keeps every metric but no probes. The
// experiments that read probes (fig01, fig12) print it rather than a ratio
// of zero counts, and table1 prints it for a run with no cycles.
const unavailable = "n/a"

// The metrics the tables share, each of a run r against a reference run;
// NaN when r cannot say.
func cmal(r, _ sim.Result) float64 { return r.M.CMAL() }

func llcLatency(r, base sim.Result) float64 {
	if bl := base.M.AvgLLCLatency(); bl > 0 {
		return r.M.AvgLLCLatency() / bl
	}
	return math.NaN()
}

func uncoveredBFs(r, _ sim.Result) float64 {
	if r.LLCStats.BFStores == 0 {
		return math.NaN()
	}
	return float64(r.LLCStats.BFStoreFails) / float64(r.LLCStats.BFStores)
}

func overprediction(r, _ sim.Result) float64 {
	if r.Probes == nil {
		return math.NaN()
	}
	return prefetch.ReplayStats{TableHits: r.Probes.ReplayTableHits, NotBranch: r.Probes.ReplayNotBranch}.Overprediction()
}

// mean averages the values that are not NaN, which a metric reads for a
// run that cannot say (its design probes are missing, say); ok is false when
// no value is left, and the mean then reads 0.
func mean(vs []float64) (m float64, ok bool) {
	n := 0
	for _, v := range vs {
		if !math.IsNaN(v) {
			m += v
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return m / float64(n), true
}

// ratio is a/b, or 0 when b is.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perWorkload adds a row per workload with f's value as a percentage, and
// records it as headline prefix+workload; with avg, the mean over the
// workloads is prefix+"avg". A workload f has no value for (NaN) reads
// unavailable.
func (h *Harness) perWorkload(t *stats.Table, head map[string]float64, prefix string, avg bool, f func(w string) float64) {
	var vals []float64
	for _, w := range h.Workloads() {
		v := f(w)
		if math.IsNaN(v) {
			t.AddRow(w, unavailable)
			continue
		}
		t.AddRow(w, stats.Pct(v))
		head[prefix+w] = v
		vals = append(vals, v)
	}
	if m, ok := mean(vals); avg && ok {
		head[prefix+"avg"] = m
	}
}

// meanOver averages f over the active workloads, s's run of each against
// ref's run of the same workload (a zero Result for the zero spec); see mean.
func (h *Harness) meanOver(s, ref spec, f func(r, ref sim.Result) float64) (float64, bool) {
	var vals []float64
	for _, w := range h.Workloads() {
		var rr sim.Result
		if ref != (spec{}) {
			rr = h.run(w, ref)
		}
		vals = append(vals, f(h.run(w, s), rr))
	}
	return mean(vals)
}

// A row is one configuration of a table: its label, the suffix of its
// headline keys (the label when empty), and its spec.
type row struct {
	label, key string
	s          spec
}

// catalogRows are rows of catalog designs, labeled by name.
func catalogRows(names ...string) []row {
	rows := make([]row, len(names))
	for i, n := range names {
		rows[i] = row{label: n, s: spec{design: n}}
	}
	return rows
}

// sweep is one row per value of knob k on s, labeled by the value.
func sweep(s spec, k knob, values ...int) []row {
	rows := make([]row, len(values))
	for i, v := range values {
		rows[i] = row{label: fmt.Sprint(v), s: s.with(k, v)}
	}
	return rows
}

// A column of a means table: f's mean over the workloads (meanOver against
// ref), formatted, and recorded as headline head+key unless head is empty.
type column struct {
	head   string
	ref    spec
	f      func(r, ref sim.Result) float64
	format func(float64) string
}

// means adds one line per row: its label, then each column's value.
func (h *Harness) means(t *stats.Table, head map[string]float64, cols []column, rows ...row) {
	for _, r := range rows {
		key := r.key
		if key == "" {
			key = r.label
		}
		line := []string{r.label}
		for _, c := range cols {
			m, _ := h.meanOver(r.s, c.ref, c.f)
			line = append(line, c.format(m))
			if c.head != "" {
				head[c.head+key] = m
			}
		}
		t.AddRow(line...)
	}
}

// versus adds a line per workload and an average line, with a column per
// row: f of the row's run against the workload's baseline, formatted. Each
// column's average is headline prefix+key.
func (h *Harness) versus(t *stats.Table, head map[string]float64, prefix string, f func(r, base sim.Result) float64, format func(float64) string, rows ...row) {
	vals := make([][]float64, len(rows))
	for _, w := range h.Workloads() {
		base := h.run(w, baseline)
		line := []string{w}
		for i, r := range rows {
			v := f(h.run(w, r.s), base)
			vals[i] = append(vals[i], v)
			line = append(line, format(v))
		}
		t.AddRow(line...)
	}
	line := []string{"average"}
	for i, r := range rows {
		m, _ := mean(vals[i])
		line = append(line, format(m))
		head[prefix+r.key] = m
	}
	t.AddRow(line...)
}

// All runs the paper's experiments in paper order (the ablations are
// AblationIDs).
func (h *Harness) All() []Experiment {
	var out []Experiment
	for _, id := range IDs() {
		e, _ := h.ByID(id)
		out = append(out, e)
	}
	return out
}

// ByID returns the experiment with the given ID, ablations included,
// running it on demand.
func (h *Harness) ByID(id string) (Experiment, bool) {
	for _, x := range experiments {
		if x.id == id {
			e := Experiment{ID: x.id, Title: x.title, PaperNote: x.note,
				Table: &stats.Table{Header: x.header}, Headline: map[string]float64{}}
			x.body(h, e.Table, e.Headline)
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists the paper's experiment identifiers in paper order.
func IDs() []string { return ids(false) }

// AblationIDs lists the ablation sweeps beyond the paper.
func AblationIDs() []string { return ids(true) }

func ids(ablation bool) []string {
	var out []string
	for _, x := range experiments {
		if x.ablation == ablation {
			out = append(out, x.id)
		}
	}
	return out
}
