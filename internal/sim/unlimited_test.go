package sim

import (
	"context"
	"testing"

	"dnc/internal/isa"
	"dnc/internal/prefetch"
	"dnc/internal/workloads"
)

// unlimitedGolden holds the result digests (SHA-256 of the fingerprint) of
// one 2-core Web-Zeus 20K+20K cell per unlimited table of Figure 11,
// computed while both tables were still flat arrays of 2^26 entries. The
// sparse tables must reproduce them.
var unlimitedGolden = map[string]string{
	"SN4L/SeqEntries0":         "e5e69d86a448e3e2a43cf6c146ee9806aef88825abf8dc29bf6d8182c1a7279b",
	"SN4L+Dis+BTB/DisEntries0": "e5135bbf93eb1fa1f343e9958f6b247a2fd7e43cfc21610d36cedf85c2bb73af",
}

// TestUnlimitedTablesGolden runs the unlimited-table cells Figure 11
// normalizes by and checks their results against unlimitedGolden.
func TestUnlimitedTablesGolden(t *testing.T) {
	designs := map[string]func() prefetch.Design{
		"SN4L/SeqEntries0": func() prefetch.Design { return prefetch.NewSN4L(0, 2048) },
		"SN4L+Dis+BTB/DisEntries0": func() prefetch.Design {
			c := prefetch.DefaultProactiveConfig()
			c.DisEntries = 0
			return prefetch.NewProactive(c)
		},
	}
	for name, nd := range designs {
		r, err := RunChecked(context.Background(), RunConfig{
			Workload:      workloads.Params("Web-Zeus", isa.Fixed),
			NewDesign:     nd,
			Cores:         2,
			WarmCycles:    20_000,
			MeasureCycles: 20_000,
			Seed:          1,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := sha([]byte(fingerprint(t, r))); got != unlimitedGolden[name] {
			t.Errorf("%s: result digest %s, want %s", name, got, unlimitedGolden[name])
		}
	}
}
