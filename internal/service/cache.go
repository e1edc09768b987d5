package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"dnc/internal/jsonl"
	"dnc/internal/sim/runner"
)

// cacheEntry is one JSONL line of the result cache: a completed cell's
// result under its content address, plus the digest of the result bytes so
// bit-exactness of later hits is checkable without re-serialization.
type cacheEntry struct {
	// Digest is the cell-key content address (cellSpec.Digest).
	Digest string `json:"digest"`
	// Key is the canonical cell key, stored for human forensics.
	Key string `json:"key"`
	// ResultDigest is ResultDigest(Result) at insertion time.
	ResultDigest string             `json:"result_digest"`
	Result       *runner.ResultJSON `json:"result"`

	// size is the entry's on-disk footprint (its JSONL line including the
	// newline), tracked for the eviction budget. Not serialized.
	size int64
}

// resultCache is the persistent, content-addressed dedup store shared by
// every job the server runs, and the one durable record of an admitted
// result (the column store is derived from it). Its crash discipline is
// internal/jsonl's: one fsynced JSONL line per insert, a torn trailing line
// (process killed mid-append) discarded on load, and appends always
// starting on a fresh line. Entries are immutable — deterministic runs mean a digest can
// only ever map to one result, so the first insert wins and duplicates are
// dropped.
//
// With maxBytes > 0 the cache is bounded: when live entries exceed the
// budget the oldest are evicted (insertion order — the cells least likely
// to be re-requested), and once the dead bytes left behind in the file
// exceed half the budget the file is compacted by atomic rewrite. Between
// compactions the file holds at most budget + budget/2 plus one entry, so
// the on-disk footprint is bounded too. An evicted cell simply re-runs on
// its next request; determinism makes eviction semantically invisible.
type resultCache struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	maxBytes int64
	byDigest map[string]*cacheEntry
	// order is the insertion order of live digests (eviction scans from the
	// front); evicted digests are removed lazily on compaction scans.
	order     []string
	liveBytes int64 // sum of live entry sizes
	deadBytes int64 // bytes in the file belonging to evicted entries
	hits      uint64
	inserts   uint64
	evictions uint64
	errs      []error
}

// cacheStats is the cache's operational snapshot.
type cacheStats struct {
	entries   int
	hits      uint64
	inserts   uint64
	evictions uint64
	liveBytes int64
}

// openResultCache loads an existing cache file (tolerating a torn tail) and
// opens it for appending. maxBytes > 0 bounds the cache; a loaded file
// already over budget is evicted down and compacted immediately.
func openResultCache(path string, maxBytes int64) (*resultCache, error) {
	c := &resultCache{path: path, maxBytes: maxBytes, byDigest: make(map[string]*cacheEntry)}
	f, err := jsonl.OpenAppend(path, func(line []byte) {
		var e cacheEntry
		if json.Unmarshal(line, &e) != nil || e.Digest == "" || e.Result == nil {
			return // torn or foreign line: the cell simply re-runs
		}
		if _, dup := c.byDigest[e.Digest]; !dup {
			e.size = int64(len(line)) + 1
			c.byDigest[e.Digest] = &e
			c.order = append(c.order, e.Digest)
			c.liveBytes += e.size
		}
	})
	if err != nil {
		return nil, fmt.Errorf("service: opening result cache: %w", err)
	}
	c.f = f
	if c.maxBytes > 0 && c.liveBytes > c.maxBytes {
		c.evictLocked()
		c.compactLocked() // a restart with a shrunken budget trims eagerly
	}
	return c, nil
}

// lookup returns the entry for a cell digest, counting a dedup hit. Use get
// for stat-neutral reads (result streaming).
func (c *resultCache) lookup(digest string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byDigest[digest]
	if ok {
		c.hits++
	}
	return e, ok
}

// get returns the entry without touching the hit statistics.
func (c *resultCache) get(digest string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byDigest[digest]
	return e, ok
}

// insert stores a freshly computed result under the cell's content address,
// appending and fsyncing one JSONL line so the entry survives kill -9. A
// digest already present is left untouched (first insert wins). The
// returned entry carries the result digest the caller reports upstream.
// resultDigest is ResultDigest(r), which every caller has already computed.
func (c *resultCache) insert(cell cellSpec, r *runner.ResultJSON, resultDigest string) *cacheEntry {
	digest := cell.Digest()
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byDigest[digest]; ok {
		return e
	}
	e := &cacheEntry{
		Digest:       digest,
		Key:          cell.Key(),
		ResultDigest: resultDigest,
		Result:       r,
	}
	// An entry that could not be written is still served this process; the
	// cell re-runs after a restart.
	n, err := jsonl.Append(c.f, e)
	if err != nil {
		c.errs = append(c.errs, fmt.Errorf("service: cache append %s: %w", cell.Key(), err))
	}
	e.size = int64(n)
	c.byDigest[digest] = e
	c.order = append(c.order, digest)
	c.liveBytes += e.size
	c.inserts++
	if c.maxBytes > 0 && c.liveBytes > c.maxBytes {
		c.evictLocked()
		if c.deadBytes > c.maxBytes/2 {
			c.compactLocked()
		}
	}
	return e
}

// evictLocked drops oldest-first until live bytes fit the budget, always
// keeping at least the newest entry (a single result larger than the whole
// budget still has to be servable).
func (c *resultCache) evictLocked() {
	for c.liveBytes > c.maxBytes && len(c.order) > 1 {
		digest := c.order[0]
		c.order = c.order[1:]
		e, ok := c.byDigest[digest]
		if !ok {
			continue
		}
		delete(c.byDigest, digest)
		c.liveBytes -= e.size
		c.deadBytes += e.size
		c.evictions++
	}
}

// compactLocked rewrites the file with only live entries (atomic tmp +
// rename, fsynced) and reopens it for appending, reclaiming dead bytes.
// Failures leave the old file in place — correctness never depends on
// compaction, only the disk bound does.
func (c *resultCache) compactLocked() {
	tmp := c.path + ".compact"
	f, err := os.Create(tmp)
	if err != nil {
		c.errs = append(c.errs, fmt.Errorf("service: cache compact: %w", err))
		return
	}
	w := bufio.NewWriter(f)
	ok := true
	live := make([]string, 0, len(c.byDigest))
	for _, digest := range c.order {
		e, present := c.byDigest[digest]
		if !present {
			continue
		}
		live = append(live, digest)
		line, err := json.Marshal(e)
		if err != nil {
			continue
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			c.errs = append(c.errs, fmt.Errorf("service: cache compact write: %w", err))
			ok = false
			break
		}
	}
	if ok {
		if err := w.Flush(); err != nil {
			c.errs = append(c.errs, fmt.Errorf("service: cache compact flush: %w", err))
			ok = false
		}
	}
	if ok {
		if err := f.Sync(); err != nil {
			c.errs = append(c.errs, fmt.Errorf("service: cache compact sync: %w", err))
			ok = false
		}
	}
	if err := f.Close(); err != nil && ok {
		c.errs = append(c.errs, fmt.Errorf("service: cache compact close: %w", err))
		ok = false
	}
	if !ok {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, c.path); err != nil {
		c.errs = append(c.errs, fmt.Errorf("service: cache compact rename: %w", err))
		os.Remove(tmp)
		return
	}
	nf, err := os.OpenFile(c.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		c.errs = append(c.errs, fmt.Errorf("service: cache compact reopen: %w", err))
		return
	}
	c.f.Close()
	c.f = nf
	c.order = live
	c.deadBytes = 0
}

// entries returns the live entries in insertion order — the walk the
// column-store backfill does on startup to repair a lost or torn store.
func (c *resultCache) entries() []*cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*cacheEntry, 0, len(c.byDigest))
	for _, digest := range c.order {
		if e, ok := c.byDigest[digest]; ok {
			out = append(out, e)
		}
	}
	return out
}

// stats reports the cache's operational counters.
func (c *resultCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		entries:   len(c.byDigest),
		hits:      c.hits,
		inserts:   c.inserts,
		evictions: c.evictions,
		liveBytes: c.liveBytes,
	}
}

// close closes the backing file; write errors accumulated over the run are
// joined into the returned error.
func (c *resultCache) close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var errs []error
	errs = append(errs, c.errs...)
	if c.f != nil {
		if err := c.f.Close(); err != nil {
			errs = append(errs, err)
		}
		c.f = nil
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("service: result cache: %v", errs)
}
