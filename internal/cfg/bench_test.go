package cfg_test

import (
	"testing"

	"dnc/internal/cfg"
	"dnc/internal/isa"
	"dnc/internal/workloads"
)

var benchProg *cfg.Program

func benchGenerate(b *testing.B, name string, mode isa.Mode) {
	p := workloads.Params(name, mode)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchProg = cfg.Generate(p)
	}
}

// BenchmarkGenerateOLTPDBAFixed builds the largest preset (6 MB of code):
// what a cold dncsim invocation or a worker's first cell of a workload pays
// before it simulates. B/op is the transient garbage that sets a process's
// peak RSS; scripts/benchdiff.sh gates it and allocs/op.
func BenchmarkGenerateOLTPDBAFixed(b *testing.B) { benchGenerate(b, "OLTP-DB-A", isa.Fixed) }

// BenchmarkGenerateWebZeusVariable is the variable-length path (per
// instruction size draws, the sizes array).
func BenchmarkGenerateWebZeusVariable(b *testing.B) { benchGenerate(b, "Web-Zeus", isa.Variable) }

// BenchmarkWalkerNext is one committed step over the largest preset, the
// hottest flat function of every run.
func BenchmarkWalkerNext(b *testing.B) {
	w := cfg.NewWalker(cfg.Generate(workloads.Params("OLTP-DB-A", isa.Fixed)), 1)
	var s cfg.Step
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Next(&s)
	}
}
