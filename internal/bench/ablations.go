package bench

import (
	"fmt"

	"dnc/internal/prefetch"
	"dnc/internal/sim"
	"dnc/internal/stats"
)

// Ablations beyond the paper's figures: the design choices DESIGN.md calls
// out, each swept in isolation on the full SN4L+Dis+BTB configuration.

// AblationDepth sweeps the proactive chain termination depth (paper: 4).
func (h *Harness) AblationDepth() Experiment {
	t := &stats.Table{Header: []string{"max chain depth", "speedup (avg)", "bandwidth (norm.)"}}
	head := map[string]float64{}
	for _, depth := range []int{1, 2, 4, 8} {
		var sp, bw []float64
		key := fmt.Sprintf("full-depth%d", depth)
		for _, w := range h.Workloads() {
			r := h.run(w, key, func() prefetch.Design {
				c := prefetch.DefaultProactiveConfig()
				c.WithBTBPrefetch = true
				c.MaxDepth = depth
				return prefetch.NewProactive(c)
			}, runOpts{})
			base := h.Baseline(w)
			sp = append(sp, sim.Speedup(r, base))
			bw = append(bw, sim.BandwidthRatio(r, base))
		}
		t.AddRow(fmt.Sprint(depth), stats.F2(mean(sp)), stats.F2(mean(bw)))
		head[fmt.Sprintf("depth_%d", depth)] = mean(sp)
	}
	return Experiment{
		ID:        "abl-depth",
		Title:     "Ablation: proactive chain depth",
		PaperNote: "paper: four is a reasonable termination threshold",
		Table:     t,
		Headline:  head,
	}
}

// AblationRLU sweeps the RLU size (paper: 8 entries).
func (h *Harness) AblationRLU() Experiment {
	t := &stats.Table{Header: []string{"RLU entries", "speedup (avg)", "cache lookups (norm.)"}}
	head := map[string]float64{}
	for _, n := range []int{0, 4, 8, 16} {
		var sp, lk []float64
		key := fmt.Sprintf("full-rlu%d", n)
		nd := func() prefetch.Design {
			c := prefetch.DefaultProactiveConfig()
			c.WithBTBPrefetch = true
			c.RLUEntries = n
			return prefetch.NewProactive(c)
		}
		if n == 8 {
			key, nd = "full", design("SN4L+Dis+BTB")
		}
		for _, w := range h.Workloads() {
			r := h.run(w, key, nd, runOpts{})
			base := h.Baseline(w)
			sp = append(sp, sim.Speedup(r, base))
			lk = append(lk, sim.LookupRatio(r, base))
		}
		t.AddRow(fmt.Sprint(n), stats.F2(mean(sp)), stats.F2(mean(lk)))
		head[fmt.Sprintf("rlu_%d", n)] = mean(lk)
	}
	return Experiment{
		ID:        "abl-rlu",
		Title:     "Ablation: RLU size vs. cache lookups",
		PaperNote: "paper: 8 entries filter repetitive lookups effectively",
		Table:     t,
		Headline:  head,
	}
}

// AblationQueueDepth sweeps the SeqQueue/DisQueue/RLUQueue capacity
// (paper: 16).
func (h *Harness) AblationQueueDepth() Experiment {
	t := &stats.Table{Header: []string{"queue depth", "speedup (avg)"}}
	head := map[string]float64{}
	for _, n := range []int{4, 8, 16, 32} {
		var sp []float64
		key := fmt.Sprintf("full-q%d", n)
		for _, w := range h.Workloads() {
			r := h.run(w, key, func() prefetch.Design {
				c := prefetch.DefaultProactiveConfig()
				c.WithBTBPrefetch = true
				c.QueueDepth = n
				return prefetch.NewProactive(c)
			}, runOpts{})
			sp = append(sp, sim.Speedup(r, h.Baseline(w)))
		}
		t.AddRow(fmt.Sprint(n), stats.F2(mean(sp)))
		head[fmt.Sprintf("qdepth_%d", n)] = mean(sp)
	}
	return Experiment{
		ID:        "abl-queues",
		Title:     "Ablation: proactive queue depth",
		PaperNote: "design choice: 16-entry SeqQueue/DisQueue/RLUQueue",
		Table:     t,
		Headline:  head,
	}
}

// Ablations runs the extra sweeps.
func (h *Harness) Ablations() []Experiment {
	return []Experiment{h.AblationDepth(), h.AblationRLU(), h.AblationQueueDepth()}
}
