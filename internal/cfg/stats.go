package cfg

import (
	"fmt"

	"dnc/internal/isa"
)

// StaticStats summarize a generated program's structure; the workload
// calibration (internal/workloads) and the documentation use them to sanity
// check that presets look like server binaries.
type StaticStats struct {
	Functions    int
	BasicBlocks  int
	Instructions int
	CodeBytes    int

	// AvgBlockInsts is the mean basic-block length in instructions.
	AvgBlockInsts float64

	// Terminator mix over all basic blocks.
	CondFrac, JumpFrac, CallFrac, RetFrac, FallFrac float64

	// IndirectCallFrac is the indirect share of call terminators.
	IndirectCallFrac float64

	// RareFrac is the fraction of basic blocks marked rarely executed.
	RareFrac float64

	// BranchesPerBlockHist[i] counts 64-byte code blocks holding i branches
	// (i clipped to len-1); the Figure 8 raw data.
	BranchesPerBlockHist [9]int
}

// Stats computes the program's static statistics.
func (p *Program) Stats() StaticStats {
	var s StaticStats
	s.Functions = len(p.Funcs)
	s.BasicBlocks = len(p.Blocks)
	s.Instructions = p.NumInsts()
	s.CodeBytes = len(p.Image.Code)

	var cond, jump, call, ret, fall, indirect, rare int
	for i := range p.Blocks {
		b := &p.Blocks[i]
		switch b.Term {
		case TermCond:
			cond++
		case TermJump:
			jump++
		case TermCall:
			call++
			if b.Callee < 0 {
				indirect++
			}
		case TermRet:
			ret++
		default:
			fall++
		}
		if b.Rare {
			rare++
		}
	}
	n := float64(s.BasicBlocks)
	if n > 0 {
		s.AvgBlockInsts = float64(s.Instructions) / n
		s.CondFrac = float64(cond) / n
		s.JumpFrac = float64(jump) / n
		s.CallFrac = float64(call) / n
		s.RetFrac = float64(ret) / n
		s.FallFrac = float64(fall) / n
		s.RareFrac = float64(rare) / n
	}
	if call > 0 {
		s.IndirectCallFrac = float64(indirect) / float64(call)
	}

	if p.Image.Mode == isa.Fixed {
		first := isa.BlockOf(p.Image.Base)
		last := isa.BlockOf(p.Image.End() - 1)
		for blk := first; blk <= last; blk++ {
			n := len(isa.PredecodeBlock(p.Image, blk))
			if n >= len(s.BranchesPerBlockHist) {
				n = len(s.BranchesPerBlockHist) - 1
			}
			s.BranchesPerBlockHist[n]++
		}
	}
	return s
}

// String renders a short summary.
func (s StaticStats) String() string {
	return fmt.Sprintf(
		"%d funcs, %d blocks (%.1f insts avg), %d KB code; terminators: %.0f%% cond, %.0f%% jump, %.0f%% call (%.0f%% indirect), %.0f%% ret, %.0f%% fall; %.0f%% rare",
		s.Functions, s.BasicBlocks, s.AvgBlockInsts, s.CodeBytes>>10,
		100*s.CondFrac, 100*s.JumpFrac, 100*s.CallFrac, 100*s.IndirectCallFrac,
		100*s.RetFrac, 100*s.FallFrac, 100*s.RareFrac)
}
