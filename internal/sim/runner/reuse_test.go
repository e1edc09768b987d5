package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"dnc/internal/isa"
	"dnc/internal/prefetch"
	"dnc/internal/sim"
)

// TestSweepReusesLLCsAcrossWorkers: concurrent workers draw recycled LLCs
// from one pool and preload each program's image into them set by set, with
// cells of two LLC configurations (DV off, DV on) interleaved. Every cell
// must equal the same cell run alone, in order, on one goroutine. CI runs
// this under -race -count=10: the shared state is the pool and the program
// cache.
func TestSweepReusesLLCsAcrossWorkers(t *testing.T) {
	var cells []Cell
	for w := 0; w < 2; w++ {
		for d, nd := range []func() prefetch.Design{newBaseline, newNL, newFull} {
			for seed := int64(1); seed <= 2; seed++ {
				cfg := testConfig(w, nd)
				cfg.Seed = seed
				if (w+d)%2 == 1 {
					cfg.Workload.Mode = isa.Variable // defaults to a DV-LLC
				}
				cells = append(cells, Cell{ID: fmt.Sprintf("w%d-d%d-s%d", w, d, seed), Config: cfg})
			}
		}
	}
	digest := func(r sim.Result) string {
		b, err := json.Marshal(NewResultJSON(r))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := make(map[string]string, len(cells))
	for _, c := range cells {
		r, err := sim.RunChecked(context.Background(), c.Config)
		if err != nil {
			t.Fatal(err)
		}
		want[c.ID] = digest(r)
	}
	rep, err := Sweep(context.Background(), cells, Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range rep.Cells {
		if cr.Status != StatusOK {
			t.Fatalf("%s: %s: %v", cr.ID, cr.Status, cr.Err)
		}
		if digest(cr.Result) != want[cr.ID] {
			t.Errorf("%s: result under a 4-worker sweep differs from the cell run alone", cr.ID)
		}
	}
}
