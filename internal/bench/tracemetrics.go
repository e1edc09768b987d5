package bench

import (
	"dnc/internal/cache"
	wl "dnc/internal/cfg"
	"dnc/internal/isa"
	"dnc/internal/sim"
	"dnc/internal/workloads"
)

// This file implements the paper's trace-level characterizations, measured
// directly on the committed instruction stream (no timing model involved):
// Figure 6 (next-four-block access-pattern predictability), Figure 7
// (discontinuity-branch predictability), and Figure 8 (branches per block
// vs. branch-footprint capacity).

// traceInsts bounds the instructions walked per characterization.
const traceInsts = 2_000_000

// NextBlockPredictability measures Figure 6 for one workload: for each L1i
// block, from insertion to eviction, record which of its four subsequent
// blocks were accessed; report how often the pattern matches the previous
// residency's pattern.
func NextBlockPredictability(workload string) float64 {
	prog := sim.Program(workloads.Params(workload, isa.Fixed))
	w := wl.NewWalker(prog, 1)
	c := cache.New(32<<10, 8)
	cur := map[isa.BlockID]*uint8{}
	last := map[isa.BlockID]uint8{}
	matches, comparisons := 0, 0
	var s wl.Step
	var prev isa.BlockID
	havePrev := false
	for i := 0; i < traceInsts; i++ {
		w.Next(&s)
		b := isa.BlockOf(s.Inst.PC)
		if havePrev && b == prev {
			continue
		}
		prev, havePrev = b, true
		for j := 1; j <= 4; j++ {
			if isa.BlockID(j) > b {
				break
			}
			if pat, ok := cur[b-isa.BlockID(j)]; ok {
				*pat |= 1 << (j - 1)
			}
		}
		if c.Access(b) != nil {
			continue
		}
		_, victim, _, evicted := c.Insert(b)
		if evicted {
			if pat, ok := cur[victim]; ok {
				if old, ok2 := last[victim]; ok2 {
					comparisons++
					if old == *pat {
						matches++
					}
				}
				last[victim] = *pat
				delete(cur, victim)
			}
		}
		z := uint8(0)
		cur[b] = &z
	}
	if comparisons == 0 {
		return 0
	}
	return float64(matches) / float64(comparisons)
}

// DiscontinuityPredictability measures Figure 7 for one workload: for each
// block, compare consecutive branch instructions that caused an L1i
// discontinuity miss out of that block; report how often the same branch is
// responsible.
func DiscontinuityPredictability(workload string) float64 {
	prog := sim.Program(workloads.Params(workload, isa.Fixed))
	w := wl.NewWalker(prog, 1)
	c := cache.New(32<<10, 8)
	lastBranch := map[isa.BlockID]isa.Addr{} // block -> last discontinuity branch PC
	matches, comparisons := 0, 0
	var s wl.Step
	var prevBlock isa.BlockID
	var prevPC isa.Addr
	var prevWasBranch bool
	haveLast := false
	for i := 0; i < traceInsts; i++ {
		w.Next(&s)
		b := isa.BlockOf(s.Inst.PC)
		if !haveLast || b != prevBlock {
			if !c.AccessOrInsert(b) {
				if haveLast && b != prevBlock+1 && prevWasBranch {
					// Discontinuity miss caused by the previous branch.
					brBlock := isa.BlockOf(prevPC)
					if old, ok := lastBranch[brBlock]; ok {
						comparisons++
						if old == prevPC {
							matches++
						}
					}
					lastBranch[brBlock] = prevPC
				}
			}
			prevBlock = b
			haveLast = true
		}
		prevPC = s.Inst.PC
		prevWasBranch = s.Inst.Kind.IsBranch() && s.Taken
	}
	if comparisons == 0 {
		return 0
	}
	return float64(matches) / float64(comparisons)
}

// BranchesPerBlock measures Figure 8 for one workload: the fraction of
// branches left uncovered when a branch footprint stores only the first
// capacity branch offsets of each block, for capacity 1..4. Measured over
// the static code image (fixed-length mode decodes every block).
func BranchesPerBlock(workload string) [4]float64 {
	prog := sim.Program(workloads.Params(workload, isa.Fixed))
	im := prog.Image
	totalBranches := 0
	over := [4]int{}
	first := isa.BlockOf(im.Base)
	last := isa.BlockOf(im.End() - 1)
	for b := first; b <= last; b++ {
		n := len(isa.PredecodeBlock(im, b))
		totalBranches += n
		for c := 1; c <= 4; c++ {
			if n > c {
				over[c-1] += n - c
			}
		}
	}
	var out [4]float64
	if totalBranches == 0 {
		return out
	}
	for i := range out {
		out[i] = float64(over[i]) / float64(totalBranches)
	}
	return out
}
