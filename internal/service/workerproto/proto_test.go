package workerproto

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"dnc/internal/isa"
)

// TestKeyStability pins the canonical key format: cell identity is a wire
// contract between server and workers (and the address of every cached
// result), so any change here must be deliberate and bump the v1 prefix.
func TestKeyStability(t *testing.T) {
	c := CellSpec{Workload: "OLTP-DB-A", Design: "SN4L+Dis+BTB", Mode: isa.Variable,
		Cores: 8, Warm: 100, Measure: 200, Seed: 3}
	want := "v1|w=OLTP-DB-A|d=SN4L+Dis+BTB|m=variable|c=8|warm=100|meas=200|seed=3"
	if got := c.Key(); got != want {
		t.Fatalf("Key = %q, want %q", got, want)
	}
	h := sha256.Sum256([]byte(want))
	if got := c.Digest(); got != hex.EncodeToString(h[:]) {
		t.Fatalf("Digest = %q not SHA-256(Key)", got)
	}
	c.Mode = isa.Fixed
	if c.Key() == want {
		t.Fatal("mode change did not change the key")
	}
}

// TestParseKeyRoundTrip: ParseKey is the exact inverse of Key for every
// mode and for negative seeds, and rejects anything that is not a
// well-formed v1 key — the property the store backfill path leans on.
func TestParseKeyRoundTrip(t *testing.T) {
	specs := []CellSpec{
		{Workload: "OLTP-DB-A", Design: "SN4L+Dis+BTB", Mode: isa.Variable,
			Cores: 8, Warm: 100, Measure: 200, Seed: 3},
		{Workload: "Web-Frontend", Design: "baseline", Mode: isa.Fixed,
			Cores: 2, Warm: 600, Measure: 600, Seed: -7},
		{Workload: "Media-Streaming", Design: "confluence", Cores: 16,
			Warm: 200_000, Measure: 200_000, Seed: 0},
	}
	for _, c := range specs {
		got, ok := ParseKey(c.Key())
		if !ok {
			t.Fatalf("ParseKey rejected its own key %q", c.Key())
		}
		if got != c {
			t.Fatalf("ParseKey(%q) = %+v, want %+v", c.Key(), got, c)
		}
	}
	for _, bad := range []string{
		"",
		"v2|w=a|d=b|m=fixed|c=1|warm=1|meas=1|seed=1",
		"v1|w=a|d=b|m=fixed|c=1|warm=1|meas=1",
		"v1|w=a|d=b|m=sometimes|c=1|warm=1|meas=1|seed=1",
		"v1|w=|d=b|m=fixed|c=1|warm=1|meas=1|seed=1",
		"v1|w=a|d=b|m=fixed|c=x|warm=1|meas=1|seed=1",
		"v1|w=a|d=b|m=fixed|c=1|warm=-2|meas=1|seed=1",
		"v1|w=a|d=b|m=fixed|c=1|warm=1|meas=1|seed=1|extra=9",
		"v1|d=b|w=a|m=fixed|c=1|warm=1|meas=1|seed=1",
	} {
		if spec, ok := ParseKey(bad); ok {
			t.Fatalf("ParseKey accepted malformed key %q as %+v", bad, spec)
		}
	}
}

func TestSpecRoundTripsJSON(t *testing.T) {
	c := CellSpec{Workload: "Web-Frontend", Design: "baseline", Cores: 2, Warm: 600, Measure: 600, Seed: 1}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back CellSpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != c || back.Digest() != c.Digest() {
		t.Fatalf("round trip changed the cell: %+v vs %+v", back, c)
	}
}

func TestValid(t *testing.T) {
	good := CellSpec{Workload: "Web-Frontend", Design: "baseline", Cores: 2, Warm: 600, Measure: 600, Seed: 1}
	if !good.Valid() {
		t.Fatal("known workload/design reported invalid")
	}
	for _, bad := range []CellSpec{
		{Workload: "nope", Design: "baseline", Cores: 2},
		{Workload: "Web-Frontend", Design: "nope", Cores: 2},
		{Workload: "Web-Frontend", Design: "baseline", Cores: 0},
	} {
		if bad.Valid() {
			t.Fatalf("invalid spec %+v reported valid", bad)
		}
	}
}

// TestRunConfigDeterministic: the same cell must build the same simulation
// configuration every time — the property that makes remote execution
// bit-identical to local.
func TestRunConfigDeterministic(t *testing.T) {
	c := CellSpec{Workload: "Web-Frontend", Design: "SN4L+Dis+BTB", Cores: 4, Warm: 100, Measure: 200, Seed: 9}
	a, b := c.RunConfig(), c.RunConfig()
	if a.Cores != b.Cores || a.WarmCycles != b.WarmCycles || a.MeasureCycles != b.MeasureCycles ||
		a.Seed != b.Seed || a.Workload.Name != b.Workload.Name || a.LLC != b.LLC {
		t.Fatalf("RunConfig not stable: %+v vs %+v", a, b)
	}
	if a.Cores != 4 || a.WarmCycles != 100 || a.MeasureCycles != 200 || a.Seed != 9 {
		t.Fatalf("RunConfig dropped spec fields: %+v", a)
	}
	if a.NewDesign == nil {
		t.Fatal("RunConfig missing the design constructor")
	}
}
