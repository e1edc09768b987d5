package cfg_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"dnc/internal/cfg"
	"dnc/internal/isa"
	"dnc/internal/workloads"
)

var updateStreamGolden = flag.Bool("update", false,
	"rewrite testdata/stream_golden.json from this build (explain the diff in CHANGES.md)")

const (
	streamGoldenPath  = "testdata/stream_golden.json"
	streamGoldenSteps = 200_000
)

// streamDigests pins one preset in one encoding mode: SHA-256 of the code
// image and of the first streamGoldenSteps committed steps under walker
// seeds 1 and 2.
type streamDigests struct {
	Image string `json:"image"`
	Seed1 string `json:"seed1"`
	Seed2 string `json:"seed2"`
}

// streamDigest hashes every field of the walker's first n steps.
func streamDigest(prog *cfg.Program, seed int64, n int) string {
	h := sha256.New()
	w := cfg.NewWalker(prog, seed)
	var s cfg.Step
	var rec [43]byte
	for i := 0; i < n; i++ {
		w.Next(&s)
		binary.LittleEndian.PutUint64(rec[0:], uint64(s.Inst.PC))
		rec[8] = s.Inst.Size
		rec[9] = byte(s.Inst.Kind)
		binary.LittleEndian.PutUint64(rec[10:], uint64(s.Inst.Target))
		rec[18] = 0
		if s.Taken {
			rec[18] = 1
		}
		binary.LittleEndian.PutUint64(rec[19:], uint64(s.NextPC))
		binary.LittleEndian.PutUint64(rec[27:], uint64(s.TargetPC))
		binary.LittleEndian.PutUint64(rec[35:], uint64(s.DataAddr))
		h.Write(rec[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamGolden pins the generator and the walker absolutely, below the
// simulator: for the seven presets in both encoding modes, the code image
// and the committed stream must reproduce the committed digests. It is the
// seconds-long proof that a change to the program representation moved no
// image byte and no step; sim.TestCatalogGolden is the slow whole-machine
// one. `go test ./internal/cfg -run TestStreamGolden -update` rewrites the
// file.
func TestStreamGolden(t *testing.T) {
	want := map[string]streamDigests{}
	if !*updateStreamGolden {
		raw, err := os.ReadFile(streamGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", streamGoldenPath, err)
		}
	}
	got := map[string]streamDigests{}
	for _, mode := range []isa.Mode{isa.Fixed, isa.Variable} {
		for _, p := range workloads.All(mode) {
			prog := cfg.Generate(p)
			code := sha256.Sum256(prog.Image.Code)
			got[fmt.Sprintf("%s/%v", p.Name, mode)] = streamDigests{
				Image: hex.EncodeToString(code[:]),
				Seed1: streamDigest(prog, 1, streamGoldenSteps),
				Seed2: streamDigest(prog, 2, streamGoldenSteps),
			}
		}
	}
	if *updateStreamGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got) != len(want) {
		t.Errorf("%d configurations, golden file has %d", len(got), len(want))
	}
	for k, g := range got {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: not in %s", k, streamGoldenPath)
		} else if g != w {
			t.Errorf("%s: digests moved\n got %+v\nwant %+v", k, g, w)
		}
	}
}
