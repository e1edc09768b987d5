package bench

import (
	"fmt"
	"strings"

	"dnc/internal/isa"
	"dnc/internal/llc"
	"dnc/internal/prefetch"
)

// A spec is one simulated configuration: a catalog design
// (prefetch.Catalog), the ISA mode, and only the knobs an experiment moves
// off that design's catalog configuration. A knob set to its catalog value
// is no variant, so equal configurations are equal specs: the harness
// simulates each once per workload, and its run-cache key, runner cell ID
// and store design tag all derive from the spec (name).
type spec struct {
	design string
	mode   isa.Mode
	moved  uint16        // bit k set: knob k is off its catalog value
	val    [numKnobs]int // the moved knobs' values, zero elsewhere
}

// The catalog designs most experiments read.
var (
	baseline   = spec{design: "baseline"}
	full       = spec{design: "SN4L+Dis+BTB"}
	shotgun    = spec{design: "shotgun"}
	confluence = spec{design: "confluence"}
)

// A knob is one parameter an experiment moves off a catalog configuration.
type knob uint8

const (
	seqEntries knob = iota // SeqTable entries, 0 = unlimited
	disEntries             // DisTable entries, 0 = unlimited
	disTagBits             // DisTable partial-tag width, 0 = tagless
	rluEntries             // RLU entries, 0 = no filter
	chainDepth             // proactive chain termination depth
	queueDepth             // SeqQueue/DisQueue/RLUQueue capacity
	btbPercent             // BTB budget, percent of the catalog design's
	perfectL1i             // 1: every L1i access hits
	perfectBTB             // 1: every BTB lookup hits
	dvLLC                  // 0: DV-LLC off; 1: the LLC's default, on exactly for variable-length code
	bfsPerSet              // DV-LLC branch footprints per BF-holder way
	numKnobs

	designKnobs = 1<<perfectL1i - 1 // the knobs that change the design itself
)

// knobNames spell the knobs in a variant's name.
var knobNames = [numKnobs]string{"seq", "dis", "tag-bits", "rlu", "depth", "queue", "btb-pct",
	"perfect-l1i", "perfect-btb", "dv", "bfs"}

// catalog returns knob k's value in s's catalog configuration, and whether
// k applies to s's design at all.
func (s spec) catalog(k knob) (int, bool) {
	proactive := s.design == "SN4L+Dis" || s.design == "SN4L+Dis+BTB"
	p := prefetch.DefaultProactiveConfig()
	switch k {
	case seqEntries:
		if s.design == "SN4L" {
			return 16 << 10, true // the catalog's NewSN4L(16<<10, 2048)
		}
		return p.SeqEntries, proactive
	case disEntries:
		return p.DisEntries, proactive
	case disTagBits:
		return int(p.DisTagBits), proactive
	case rluEntries:
		return p.RLUEntries, proactive
	case chainDepth:
		return p.MaxDepth, proactive
	case queueDepth:
		return p.QueueDepth, proactive
	case btbPercent:
		return 100, proactive || s.design == "shotgun"
	case dvLLC:
		return 1, true
	case bfsPerSet:
		return llc.DefaultConfig().BFsPerSet, true
	}
	return 0, true // perfectL1i, perfectBTB: off
}

// with returns s with knob k at v; at k's catalog value the knob is not
// moved. A knob the design does not have is a programming error.
func (s spec) with(k knob, v int) spec {
	cat, ok := s.catalog(k)
	if !ok {
		panic(fmt.Sprintf("bench: %s has no knob %s", s.design, knobNames[k]))
	}
	s.moved &^= 1 << k
	s.val[k] = 0
	if v != cat {
		s.moved |= 1 << k
		s.val[k] = v
	}
	return s
}

// get returns knob k's value in s.
func (s spec) get(k knob) int {
	if s.moved&(1<<k) != 0 {
		return s.val[k]
	}
	v, _ := s.catalog(k)
	return v
}

// name is s's design tag: the catalog name alone, or followed by the moved
// knobs in braces, e.g. "SN4L+Dis+BTB{rlu=0}" or
// "baseline{perfect-l1i=1,perfect-btb=1}". The mode is not part of it.
func (s spec) name() string {
	if s.moved == 0 {
		return s.design
	}
	var b strings.Builder
	b.WriteString(s.design)
	sep := "{"
	for k := range numKnobs {
		if s.moved&(1<<k) != 0 {
			fmt.Fprintf(&b, "%s%s=%d", sep, knobNames[k], s.val[k])
			sep = ","
		}
	}
	b.WriteString("}")
	return b.String()
}

// build returns s's design constructor (the catalog's own when no design
// knob is moved). A name outside the catalog builds a constructor that
// panics, so the runs of that spec fail and the harness records them.
func (s spec) build() func() prefetch.Design {
	e, ok := prefetch.FindDesign(s.design)
	switch {
	case !ok:
		return func() prefetch.Design { panic("bench: no catalog design " + s.design) }
	case s.moved&designKnobs == 0:
		return e.New
	case s.design == "SN4L":
		seq := s.get(seqEntries)
		return func() prefetch.Design { return prefetch.NewSN4L(seq, 2048) }
	case s.design == "shotgun":
		c := prefetch.ShotgunDesignConfig{BTBPercent: s.get(btbPercent)}
		return func() prefetch.Design { return prefetch.NewShotgun(c) }
	}
	c := prefetch.DefaultProactiveConfig()
	c.WithBTBPrefetch = s.design == "SN4L+Dis+BTB"
	c.SeqEntries, c.DisEntries, c.DisTagBits = s.get(seqEntries), s.get(disEntries), uint(s.get(disTagBits))
	c.RLUEntries, c.MaxDepth, c.QueueDepth = s.get(rluEntries), s.get(chainDepth), s.get(queueDepth)
	c.BTBEntries = scaleEntries(c.BTBEntries, s.get(btbPercent), 100)
	return func() prefetch.Design { return prefetch.NewProactive(c) }
}

// modeName renders the isa dispatch mode as the store's tag vocabulary.
func modeName(m isa.Mode) string {
	if m == isa.Variable {
		return "variable"
	}
	return "fixed"
}

// scaleEntries scales a power-of-two entry count by num/den, keeping it a
// positive power of two.
func scaleEntries(entries, num, den int) int {
	v := entries * num / den
	p := 1
	for p < v {
		p <<= 1
	}
	if p < 64 {
		p = 64
	}
	return p
}
