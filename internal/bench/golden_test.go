package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments_golden.txt from this run")

// TestExperimentsGolden pins every experiment, the ablations included, to
// the byte: its title, paper note, rendered table and headline numbers (in
// key order, each float in its shortest exact form) on the tiny harness.
// A change to how the harness names, caches or reduces its runs must leave
// this file unmodified; a change meant to move a number re-baselines it with
// -update.
func TestExperimentsGolden(t *testing.T) {
	h := tiny()
	var b strings.Builder
	for _, id := range append(IDs(), AblationIDs()...) {
		e, _ := h.ByID(id)
		fmt.Fprintf(&b, "== %s: %s\n   (%s)\n%s", e.ID, e.Title, e.PaperNote, e.Table.String())
		keys := make([]string, 0, len(e.Headline))
		for k := range e.Headline {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s = %s\n", k, strconv.FormatFloat(e.Headline[k], 'g', -1, 64))
		}
		b.WriteString("\n")
	}
	if err := h.Err(); err != nil {
		t.Fatalf("harness: %v", err)
	}
	path := filepath.Join("testdata", "experiments_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("experiments differ from %s at line %d:\ngot  %q\nwant %q", path, i+1, g, w)
			}
		}
	}
}
