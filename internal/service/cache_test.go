package service

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dnc/internal/core"
	"dnc/internal/isa"
	"dnc/internal/sim/runner"
)

func cacheCell(seed int64) cellSpec {
	return cellSpec{
		Workload: "Web-Frontend", Design: "baseline", Mode: isa.Fixed,
		Cores: 2, Warm: 1000, Measure: 1000, Seed: seed,
	}
}

func fakeResult(retired uint64) *runner.ResultJSON {
	return &runner.ResultJSON{
		Workload: "Web-Frontend", Design: "baseline",
		M: core.Metrics{Cycles: 1000, Retired: retired},
	}
}

// insertResult inserts r under the digest its admission path would compute.
func insertResult(c *resultCache, cell cellSpec, r *runner.ResultJSON) *cacheEntry {
	return c.insert(cell, r, ResultDigest(r))
}

func TestCachePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := openResultCache(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := insertResult(c, cacheCell(1), fakeResult(500))
	if e.ResultDigest == "" {
		t.Fatal("insert produced no result digest")
	}
	if _, ok := c.lookup(cacheCell(2).Digest()); ok {
		t.Fatal("lookup hit a never-inserted cell")
	}
	if err := c.close(); err != nil {
		t.Fatal(err)
	}

	c2, err := openResultCache(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.close()
	got, ok := c2.lookup(cacheCell(1).Digest())
	if !ok {
		t.Fatal("reopened cache lost the entry")
	}
	if got.ResultDigest != e.ResultDigest {
		t.Fatalf("result digest drifted across reopen: %s vs %s", got.ResultDigest, e.ResultDigest)
	}
	if got.Result.M.Retired != 500 {
		t.Fatalf("result body drifted: %+v", got.Result.M)
	}
	st := c2.stats()
	if st.entries != 1 || st.hits != 1 {
		t.Fatalf("stats = %d entries %d hits, want 1/1", st.entries, st.hits)
	}
}

// TestCacheTornTailDiscarded kills the cache mid-append (simulated by
// truncating the last line) and proves only the torn entry is lost; the
// next insert lands on a fresh line and round-trips.
func TestCacheTornTailDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, _ := openResultCache(path, 0)
	insertResult(c, cacheCell(1), fakeResult(100))
	insertResult(c, cacheCell(2), fakeResult(200))
	c.close()

	raw, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	torn := strings.Join(lines[:1], "\n") + "\n" + lines[1][:len(lines[1])/3]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := openResultCache(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.get(cacheCell(1).Digest()); !ok {
		t.Fatal("intact entry lost with the torn tail")
	}
	if _, ok := c2.get(cacheCell(2).Digest()); ok {
		t.Fatal("torn entry survived")
	}
	insertResult(c2, cacheCell(3), fakeResult(300))
	c2.close()

	c3, err := openResultCache(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.close()
	if _, ok := c3.get(cacheCell(3).Digest()); !ok {
		t.Fatal("entry appended after a torn tail did not round-trip")
	}
}

// TestCacheFirstInsertWins pins immutability: re-inserting a digest keeps
// the original entry (deterministic runs make a second, different result
// for the same cell impossible — but a buggy caller must not corrupt the
// store).
func TestCacheFirstInsertWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, _ := openResultCache(path, 0)
	defer c.close()
	first := insertResult(c, cacheCell(1), fakeResult(100))
	second := insertResult(c, cacheCell(1), fakeResult(999))
	if second.ResultDigest != first.ResultDigest {
		t.Fatal("second insert replaced an immutable entry")
	}
	if st := c.stats(); st.inserts != 1 {
		t.Fatalf("inserts = %d, want 1", st.inserts)
	}
}

// TestResultDigestDeterministic pins that equal results digest equally and
// different results differ — the property the dedup proof rests on.
func TestResultDigestDeterministic(t *testing.T) {
	a, b := fakeResult(100), fakeResult(100)
	if ResultDigest(a) != ResultDigest(b) {
		t.Fatal("equal results digest differently")
	}
	if ResultDigest(a) != ResultDigest(a) {
		t.Fatal("digest unstable")
	}
	if ResultDigest(a) == ResultDigest(fakeResult(101)) {
		t.Fatal("different results collide")
	}
}
