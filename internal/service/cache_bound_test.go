package service

import (
	"os"
	"path/filepath"
	"testing"

	"dnc/internal/sim/runner"
)

// ---- bounded-cache satellites ----

func boundCell(seed int64) cellSpec {
	return cellSpec{Workload: "Web-Frontend", Design: "baseline", Cores: 2, Warm: 600, Measure: 600, Seed: seed}
}

func boundResult(seed int64) *runner.ResultJSON {
	r := &runner.ResultJSON{Workload: "Web-Frontend", Design: "baseline"}
	r.M.Retired = uint64(seed) * 1000
	return r
}

// entrySize measures one entry's on-disk footprint so tests can size
// budgets in entries rather than magic byte counts.
func entrySize(t *testing.T) int64 {
	t.Helper()
	dir := t.TempDir()
	c, err := openResultCache(filepath.Join(dir, "probe.jsonl"), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := insertResult(c, boundCell(1), boundResult(1))
	c.close()
	return e.size
}

func TestCacheEvictsOldestFirst(t *testing.T) {
	size := entrySize(t)
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := openResultCache(path, 3*size+size/2) // room for 3 entries
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()

	for seed := int64(1); seed <= 5; seed++ {
		insertResult(c, boundCell(seed), boundResult(seed))
	}
	st := c.stats()
	if st.entries != 3 {
		t.Fatalf("entries = %d, want 3 (budget holds three)", st.entries)
	}
	if st.evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.evictions)
	}
	if st.liveBytes > 3*size+size/2 {
		t.Fatalf("liveBytes %d exceeds the %d budget", st.liveBytes, 3*size+size/2)
	}
	// Oldest two gone, newest three present.
	for seed := int64(1); seed <= 5; seed++ {
		_, ok := c.get(boundCell(seed).Digest())
		if want := seed >= 3; ok != want {
			t.Fatalf("seed %d present=%v, want %v (oldest-first eviction)", seed, ok, want)
		}
	}
}

// TestCacheSingleOversizedEntrySurvives: an entry bigger than the whole
// budget must still be servable — eviction always keeps the newest entry.
func TestCacheSingleOversizedEntrySurvives(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := openResultCache(path, 1) // absurd 1-byte budget
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	insertResult(c, boundCell(1), boundResult(1))
	if st := c.stats(); st.entries != 1 {
		t.Fatalf("entries = %d, want the newest entry kept despite the budget", st.entries)
	}
	insertResult(c, boundCell(2), boundResult(2))
	st := c.stats()
	if st.entries != 1 || st.evictions != 1 {
		t.Fatalf("entries=%d evictions=%d, want 1/1 (previous newest evicted)", st.entries, st.evictions)
	}
	if _, ok := c.get(boundCell(2).Digest()); !ok {
		t.Fatal("newest entry missing")
	}
}

// TestCacheCompactionBoundsDisk: once dead bytes pass half the budget the
// file is rewritten; the on-disk footprint stays bounded no matter how many
// entries churn through, and a reload serves exactly the live set.
func TestCacheCompactionBoundsDisk(t *testing.T) {
	size := entrySize(t)
	budget := 4 * size
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := openResultCache(path, budget)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 60; seed++ {
		insertResult(c, boundCell(seed), boundResult(seed))
	}
	st := c.stats()
	live := map[int64]bool{}
	for seed := int64(1); seed <= 60; seed++ {
		if _, ok := c.get(boundCell(seed).Digest()); ok {
			live[seed] = true
		}
	}
	if err := c.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Between compactions the file holds at most budget + budget/2 dead
	// plus one in-flight entry.
	if bound := budget + budget/2 + size; fi.Size() > bound {
		t.Fatalf("file is %d bytes after churn, want ≤ %d (compaction not bounding disk)", fi.Size(), bound)
	}

	// Reload: only the live set comes back, and lookups still verify.
	c2, err := openResultCache(path, budget)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.close()
	st2 := c2.stats()
	if st2.entries != st.entries {
		t.Fatalf("reloaded %d entries, want %d", st2.entries, st.entries)
	}
	if !live[60] {
		t.Fatal("newest entry not in the live set")
	}
	for seed := int64(1); seed <= 60; seed++ {
		e, ok := c2.get(boundCell(seed).Digest())
		if ok != live[seed] {
			t.Fatalf("seed %d present=%v after reload, want %v", seed, ok, live[seed])
		}
		if ok && e.ResultDigest != ResultDigest(boundResult(seed)) {
			t.Fatalf("seed %d corrupt after compaction+reload", seed)
		}
	}
}

// TestCacheShrunkenBudgetTrimsOnLoad: restarting with a smaller
// -cache-max-bytes trims the loaded file immediately.
func TestCacheShrunkenBudgetTrimsOnLoad(t *testing.T) {
	size := entrySize(t)
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := openResultCache(path, 0) // unbounded first life
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 10; seed++ {
		insertResult(c, boundCell(seed), boundResult(seed))
	}
	c.close()

	c2, err := openResultCache(path, 2*size+size/2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.close()
	if st := c2.stats(); st.entries != 2 || st.evictions != 8 {
		t.Fatalf("after shrunken reload: entries=%d evictions=%d, want 2/8", st.entries, st.evictions)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 3*size {
		t.Fatalf("file not compacted on shrunken reload: %d bytes", fi.Size())
	}
}

// TestCacheUnboundedNeverEvicts pins the default: maxBytes 0 keeps
// everything (the pre-bound behavior existing deployments rely on).
func TestCacheUnboundedNeverEvicts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := openResultCache(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for seed := int64(1); seed <= 50; seed++ {
		insertResult(c, boundCell(seed), boundResult(seed))
	}
	if st := c.stats(); st.entries != 50 || st.evictions != 0 {
		t.Fatalf("unbounded cache: entries=%d evictions=%d, want 50/0", st.entries, st.evictions)
	}
}

// ---- Retry-After jitter satellite ----

// TestRetryAfterEqualJitter: the 429 Retry-After must scale with backlog
// and carry equal jitter — at least half the backlog-scaled estimate, never
// more than the full estimate, never below one second.
func TestRetryAfterEqualJitter(t *testing.T) {
	for _, backlog := range []int{0, 1, 7, 63} {
		base := 1 + backlog
		lo := retryAfterSeconds(backlog, func() float64 { return 0 })
		hi := retryAfterSeconds(backlog, func() float64 { return 0.999999 })
		if lo < 1 {
			t.Fatalf("backlog %d: Retry-After %d < 1s", backlog, lo)
		}
		if want := (base + 1) / 2; lo != want {
			t.Fatalf("backlog %d: fixed half = %d, want %d", backlog, lo, want)
		}
		if hi > base {
			t.Fatalf("backlog %d: max jitter %d exceeds the backlog estimate %d", backlog, hi, base)
		}
		if hi < lo {
			t.Fatalf("backlog %d: jitter range inverted (%d..%d)", backlog, lo, hi)
		}
	}
	// Distinct draws actually spread (the anti-stampede point).
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		seen[retryAfterSeconds(20, func() float64 { return float64(i) / 100 })] = true
	}
	if len(seen) < 5 {
		t.Fatalf("only %d distinct Retry-After values across the jitter range", len(seen))
	}
}
