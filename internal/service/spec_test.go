package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"dnc/internal/core"
	"dnc/internal/isa"
	"dnc/internal/prefetch"
	"dnc/internal/sim"
	"dnc/internal/sim/runner"
)

func TestSpecNormalizeDefaults(t *testing.T) {
	n := Spec{Workloads: []string{"Web-Frontend"}, Designs: []string{"baseline"}}.normalized()
	if n.Mode != "fixed" || n.Cores != 16 || n.WarmCycles != 200_000 ||
		n.MeasureCycles != 200_000 || len(n.Seeds) != 1 || n.Seeds[0] != 1 {
		t.Fatalf("normalized = %+v, want paper defaults", n)
	}
}

func TestSpecValidation(t *testing.T) {
	good := Spec{Workloads: []string{"Web-Frontend"}, Designs: []string{"baseline"}}
	cases := []struct {
		name   string
		mutate func(*Spec)
		errSub string
	}{
		{"ok", func(s *Spec) {}, ""},
		{"no workloads", func(s *Spec) { s.Workloads = nil }, "no workloads"},
		{"no designs", func(s *Spec) { s.Designs = nil }, "no designs"},
		{"unknown workload", func(s *Spec) { s.Workloads = []string{"nope"} }, "unknown workload"},
		{"unknown design", func(s *Spec) { s.Designs = []string{"nope"} }, "unknown design"},
		{"bad mode", func(s *Spec) { s.Mode = "thumb" }, "mode"},
		{"cores high", func(s *Spec) { s.Cores = 17 }, "cores"},
		{"cores negative", func(s *Spec) { s.Cores = -1 }, "cores"},
		{"window too long", func(s *Spec) { s.MeasureCycles = maxSpecCycles + 1 }, "window"},
		{"dup seeds", func(s *Spec) { s.Seeds = []int64{3, 3} }, "duplicate seed"},
		{"too many seeds", func(s *Spec) {
			s.Seeds = make([]int64, maxSpecSeeds+1)
			for i := range s.Seeds {
				s.Seeds[i] = int64(i)
			}
		}, "seeds exceed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := good
			tc.mutate(&s)
			err := s.normalized().validate(1024)
			if tc.errSub == "" {
				if err != nil {
					t.Fatalf("validate = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.errSub) {
				t.Fatalf("validate = %v, want error containing %q", err, tc.errSub)
			}
		})
	}
}

func TestSpecCellLimit(t *testing.T) {
	s := Spec{
		Workloads: []string{"Web-Frontend", "Web-Search"},
		Designs:   []string{"baseline", "NL"},
		Seeds:     []int64{1, 2, 3},
	}.normalized()
	if err := s.validate(12); err != nil {
		t.Fatalf("12 cells under limit 12: %v", err)
	}
	if err := s.validate(11); err == nil || !strings.Contains(err.Error(), "cells") {
		t.Fatalf("12 cells over limit 11: err = %v", err)
	}
}

// TestCellKeyCapturesEveryInput proves every result-determining field
// participates in the cell identity: perturbing any one of them must
// change the key and the digest.
func TestCellKeyCapturesEveryInput(t *testing.T) {
	base := cellSpec{
		Workload: "Web-Frontend", Design: "baseline", Mode: isa.Fixed,
		Cores: 2, Warm: 1000, Measure: 1000, Seed: 1,
	}
	variants := []cellSpec{
		{Workload: "Web-Search", Design: "baseline", Mode: isa.Fixed, Cores: 2, Warm: 1000, Measure: 1000, Seed: 1},
		{Workload: "Web-Frontend", Design: "NL", Mode: isa.Fixed, Cores: 2, Warm: 1000, Measure: 1000, Seed: 1},
		{Workload: "Web-Frontend", Design: "baseline", Mode: isa.Variable, Cores: 2, Warm: 1000, Measure: 1000, Seed: 1},
		{Workload: "Web-Frontend", Design: "baseline", Mode: isa.Fixed, Cores: 4, Warm: 1000, Measure: 1000, Seed: 1},
		{Workload: "Web-Frontend", Design: "baseline", Mode: isa.Fixed, Cores: 2, Warm: 2000, Measure: 1000, Seed: 1},
		{Workload: "Web-Frontend", Design: "baseline", Mode: isa.Fixed, Cores: 2, Warm: 1000, Measure: 2000, Seed: 1},
		{Workload: "Web-Frontend", Design: "baseline", Mode: isa.Fixed, Cores: 2, Warm: 1000, Measure: 1000, Seed: 2},
	}
	seen := map[string]bool{base.Key(): true, base.Digest(): true}
	for i, v := range variants {
		if seen[v.Key()] || seen[v.Digest()] {
			t.Errorf("variant %d aliases another cell: %s", i, v.Key())
		}
		seen[v.Key()] = true
		seen[v.Digest()] = true
	}
	if base.Key() != base.Key() || base.Digest() != base.Digest() {
		t.Error("cell identity is not stable")
	}
}

// TestSpecExpansionDeterministic pins the cell order (workload-major) and
// that normalization makes explicit-default and implicit-default specs
// expand identically — the property the dedup cache relies on.
func TestSpecExpansionDeterministic(t *testing.T) {
	implicit := Spec{Workloads: []string{"Web-Frontend"}, Designs: []string{"baseline"}}.normalized()
	explicit := Spec{
		Workloads: []string{"Web-Frontend"}, Designs: []string{"baseline"},
		Mode: "fixed", Cores: 16, WarmCycles: 200_000, MeasureCycles: 200_000,
		Seeds: []int64{1},
	}.normalized()
	ic, ec := implicit.cells(), explicit.cells()
	if len(ic) != 1 || len(ec) != 1 || ic[0].Digest() != ec[0].Digest() {
		t.Fatalf("implicit and explicit defaults expand differently: %v vs %v", ic, ec)
	}
	if implicit.digest() != explicit.digest() {
		t.Fatalf("spec digests differ for identical normalized specs")
	}
	// Priority must not participate in the spec digest.
	prio := explicit
	prio.Priority = 9
	if prio.digest() != explicit.digest() {
		t.Fatal("priority changed the spec digest")
	}
}

func TestCellRunConfigMatchesSpec(t *testing.T) {
	c := cellSpec{
		Workload: "Web-Frontend", Design: "shotgun", Mode: isa.Fixed,
		Cores: 3, Warm: 1111, Measure: 2222, Seed: 7,
	}
	rc := c.RunConfig()
	if rc.Workload.Name != "Web-Frontend" || rc.Cores != 3 ||
		rc.WarmCycles != 1111 || rc.MeasureCycles != 2222 || rc.Seed != 7 {
		t.Fatalf("runConfig = %+v, want spec fields carried over", rc)
	}
	if rc.NewDesign == nil || rc.NewDesign().Name() == "" {
		t.Fatal("runConfig has no design constructor")
	}
	// The catalog name is the whole machine: the default core, and a design
	// that declares its own prefetch buffer (Shotgun's 64 entries).
	if !reflect.DeepEqual(rc.Core, core.Config{}) {
		t.Fatalf("runConfig sets the core: %+v", rc.Core)
	}
	if b, ok := rc.NewDesign().(prefetch.Bufferer); !ok || b.BufferEntries() != 64 {
		t.Fatal("the cell's shotgun declares no 64-entry prefetch buffer")
	}
}

// TestResultDigestIndependentOfShards: a cell's wire form, and so its digest,
// must not depend on how many goroutines simulated it. Under IntraJobs 0 the
// shard count follows the simulating host's idle CPUs, so two workers with
// different loads upload one cell; the admission path would answer the
// second with 409 "determinism violation" if their bytes differed.
func TestResultDigestIndependentOfShards(t *testing.T) {
	spec := cellSpec{
		Workload: "Web-Frontend", Design: "SN4L+Dis+BTB", Mode: isa.Fixed,
		Cores: 16, Warm: 10_000, Measure: 10_000, Seed: 2,
	}
	var want []byte
	var wantDigest string
	for _, jobs := range []int{1, 2, 4} {
		rc := spec.RunConfig()
		rc.IntraJobs = jobs
		res, err := sim.RunChecked(context.Background(), rc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Shards != jobs {
			t.Fatalf("IntraJobs %d ran on %d shards", jobs, res.Shards)
		}
		body := runner.NewResultJSON(res)
		got, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want, wantDigest = got, ResultDigest(body)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("IntraJobs %d: ResultJSON bytes differ from the serial run's", jobs)
		}
		if d := ResultDigest(body); d != wantDigest {
			t.Errorf("IntraJobs %d: ResultDigest %s, serial %s", jobs, d, wantDigest)
		}
	}
}

// FuzzSpecDecode throws arbitrary POST /v1/jobs bodies at the submit handler
// of a drained server, so nothing is ever enqueued: a body that does not
// decode, or decodes to a spec validate refuses, is answered 400, and only a
// spec validate admits gets as far as the drain check's 503. Whatever it
// admits expands into cells a worker accepts. The seeds are
// TestSpecValidation's table plus torn and foreign JSON.
func FuzzSpecDecode(f *testing.F) {
	good := Spec{Workloads: []string{"Web-Frontend"}, Designs: []string{"baseline"}}
	for _, mutate := range []func(*Spec){
		func(s *Spec) {},
		func(s *Spec) { s.Workloads = nil },
		func(s *Spec) { s.Designs = []string{"nope"} },
		func(s *Spec) { s.Designs = []string{"SN4L+Dis+BTB", "shotgun"}; s.Mode = "variable" },
		func(s *Spec) { s.Mode = "thumb" },
		func(s *Spec) { s.Cores = 17 },
		func(s *Spec) { s.MeasureCycles = maxSpecCycles + 1 },
		func(s *Spec) { s.Seeds = []int64{3, 3} },
		func(s *Spec) { s.Seeds = []int64{-1, 1 << 62}; s.Priority = -5 },
	} {
		s := good
		mutate(&s)
		b, _ := json.Marshal(s)
		f.Add(b)
	}
	for _, b := range []string{`{"bogus":1}`, `{"workloads":`, `null`, `[]`, `{"cores":"16"}`, `{"seeds":[1e99]}`} {
		f.Add([]byte(b))
	}
	e := newTestEnv(f, func(c *Config) { c.RunCell = fakeRunCell })
	e.drain()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		e.srv.handleSubmit(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err := dec.Decode(&spec)
		if err == nil {
			err = spec.normalized().validate(e.srv.cfg.MaxCellsPerJob)
		}
		switch {
		case rec.Code == http.StatusServiceUnavailable && err == nil:
			for _, c := range spec.normalized().cells() {
				if !c.Valid() {
					t.Fatalf("admitted spec %s expands to cell %s, which a worker refuses", body, c.Key())
				}
			}
		case rec.Code == http.StatusBadRequest && (err != nil || len(body) > maxSpecBytes):
		default:
			t.Fatalf("POST /v1/jobs %q = %d (decode/validate: %v): %s", body, rec.Code, err, rec.Body)
		}
	})
}
