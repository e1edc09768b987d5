package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	wl "dnc/internal/cfg"
	"dnc/internal/core"
	"dnc/internal/isa"
	"dnc/internal/prefetch"
)

var updateGolden = flag.Bool("update", false,
	"rewrite testdata/catalog_golden.json from this build (explain the diff in CHANGES.md)")

const goldenPath = "testdata/catalog_golden.json"

// goldenDigests pins one catalog configuration absolutely: SHA-256 of the
// uninterrupted run's fingerprint, of the last cadence snapshot's file
// bytes, and of the fingerprint of a run resumed from that snapshot.
type goldenDigests struct {
	Result   string `json:"result"`
	Snapshot string `json:"snapshot"`
	Resumed  string `json:"resumed"`
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenConfig is one cell of the pinned matrix: a catalog design on the
// small test workload, 4 cores, 20K+20K, a snapshot every 8192 cycles.
func goldenConfig(e prefetch.CatalogEntry, w wl.Params, seed int64, ckpt string) RunConfig {
	cc := core.DefaultConfig()
	cc.PrefetchBufferEntries = e.PrefetchBufferEntries
	return RunConfig{
		Workload:        w,
		NewDesign:       e.New,
		Cores:           4,
		Core:            cc,
		WarmCycles:      20_000,
		MeasureCycles:   20_000,
		Seed:            seed,
		CheckpointEvery: 8192,
		CheckpointPath:  ckpt,
	}
}

// TestCatalogGolden pins absolute behaviour: every catalog design x
// {fixed, variable} x 3 seeds must reproduce the committed digests of its
// result, of its last snapshot's bytes and of the run resumed from it, and
// every fixed-mode configuration must reproduce them again with the run
// forced onto 2 and onto 4 shards. The relative checks (engine A == engine
// B, resumed == straight) pass when a change shifts every side the same
// way; this does not. -short runs one seed. `go test ./internal/sim -run
// TestCatalogGolden -update` rewrites the file.
func TestCatalogGolden(t *testing.T) {
	t.Parallel() // the long pole of the package, beside the mutation sweep
	want := map[string]goldenDigests{}
	if !*updateGolden {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
	} else if testing.Short() {
		t.Fatal("-update needs the full matrix; drop -short")
	}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	got := map[string]goldenDigests{}
	dir := t.TempDir()
	digests := func(key string, rc RunConfig) goldenDigests {
		straight, err := RunChecked(context.Background(), rc)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		snap, err := os.ReadFile(rc.CheckpointPath)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		resume := rc
		resume.ResumeFrom, resume.CheckpointEvery, resume.CheckpointPath = rc.CheckpointPath, 0, ""
		resumed, err := RunChecked(context.Background(), resume)
		if err != nil {
			t.Fatalf("%s: resuming: %v", key, err)
		}
		return goldenDigests{
			Result:   sha([]byte(fingerprint(t, straight))),
			Snapshot: sha(snap),
			Resumed:  sha([]byte(fingerprint(t, resumed))),
		}
	}
	for _, e := range prefetch.Catalog() {
		for _, w := range []wl.Params{smallWorkload(), variableWorkload()} {
			for _, seed := range seeds {
				key := fmt.Sprintf("%s/%s/seed%d", e.Name, w.Mode, seed)
				rc := goldenConfig(e, w, seed, filepath.Join(dir, "golden.ckpt"))
				g := digests(key, rc)
				got[key] = g
				ref, ok := want[key]
				if *updateGolden {
					ref, ok = g, true
				}
				switch {
				case !ok:
					t.Errorf("%s: no committed digests", key)
				case g != ref:
					t.Errorf("%s: digests moved\n got %+v\nwant %+v", key, g, ref)
				}
				if w.Mode != isa.Fixed || !ok {
					continue // variable-length runs are always serial
				}
				// The sharded engine, forced, must reproduce the serial
				// engine's committed digests.
				for _, jobs := range []int{2, 4} {
					rc.IntraJobs = jobs
					if g := digests(key, rc); g != ref {
						t.Errorf("%s on %d shards: digests differ from the committed serial ones\n got %+v\nwant %+v",
							key, jobs, g, ref)
					}
				}
			}
		}
	}
	if !*updateGolden {
		if !testing.Short() && len(want) != len(got) {
			t.Errorf("%s holds %d configurations, the matrix has %d", goldenPath, len(want), len(got))
		}
		return
	}
	raw, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s: %d configurations", goldenPath, len(got))
}
