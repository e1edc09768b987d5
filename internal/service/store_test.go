package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dnc/internal/resultstore"
)

// queryResponse mirrors handleQuery's body.
type queryResponse struct {
	Metric string              `json:"metric"`
	Groups []resultstore.Group `json:"groups"`
}

// TestStoreQueryAndRecovery proves the column store sidecar end to end:
// admitted cells become queryable aggregates; the aggregates match values
// derived independently from the executor's arithmetic; and a store file
// truncated mid-block and fouled with trailing garbage is repaired on
// restart (torn tail cut at the last valid checksum, missing cells
// backfilled from the cache) with byte-identical query answers.
func TestStoreQueryAndRecovery(t *testing.T) {
	e := newTestEnv(t, func(c *Config) {
		c.RunCell = fakeRunCell
		c.Workers = 1
		c.CellJobs = 1 // deterministic append order → bit-stable float sums
	})
	spec := smallSpec()
	spec.Workloads = []string{"Web-Frontend", "Web-Search"}
	spec.Designs = []string{"baseline", "NL"}
	spec.Seeds = []int64{1, 2, 3}

	st := e.waitJob(e.submit(spec).ID)
	if st.State != JobDone || st.Simulated != 12 {
		t.Fatalf("job = %s with %d simulated, want done with 12", st.State, st.Simulated)
	}

	// fakeRunCell sets Cycles=MeasureCycles and Retired=seed*1000, so the
	// expected group means are computable exactly — same float ops, same
	// order as Scan (file order is seed order under one sequential worker).
	wantMean := func(seeds ...int64) float64 {
		var sum float64
		for _, s := range seeds {
			sum += float64(uint64(s)*1000) / float64(spec.MeasureCycles)
		}
		return sum / float64(len(seeds))
	}
	checkQuery := func(label string) {
		t.Helper()
		var qr queryResponse
		if code := e.getJSON("/v1/query?metric=ipc", &qr); code != http.StatusOK {
			t.Fatalf("[%s] GET /v1/query = %d", label, code)
		}
		if qr.Metric != "ipc" || len(qr.Groups) != 4 {
			t.Fatalf("[%s] query = metric %q with %d groups, want ipc with 4", label, qr.Metric, len(qr.Groups))
		}
		for _, g := range qr.Groups {
			if g.N != 3 {
				t.Fatalf("[%s] group %s/%s has N=%d, want 3", label, g.Workload, g.Design, g.N)
			}
			if want := wantMean(1, 2, 3); g.Mean != want {
				t.Fatalf("[%s] group %s/%s mean = %v, want exactly %v", label, g.Workload, g.Design, g.Mean, want)
			}
		}
		// Filters push down: one workload, one seed.
		var filtered queryResponse
		if code := e.getJSON("/v1/query?metric=ipc&workload=Web-Search&seed=2", &filtered); code != http.StatusOK {
			t.Fatalf("[%s] filtered query failed", label)
		}
		if len(filtered.Groups) != 2 {
			t.Fatalf("[%s] filtered query has %d groups, want 2", label, len(filtered.Groups))
		}
		for _, g := range filtered.Groups {
			if g.Workload != "Web-Search" || g.N != 1 || g.Mean != wantMean(2) {
				t.Fatalf("[%s] filtered group = %+v", label, g)
			}
		}
	}
	checkQuery("live")

	var before queryResponse
	e.getJSON("/v1/query?metric=ipc", &before)

	stats := e.srv.Stats()
	if stats.StoreCells != 12 || stats.StoreBytes <= 0 {
		t.Fatalf("stats = %d cells %d bytes, want 12 cells and a non-empty file", stats.StoreCells, stats.StoreBytes)
	}

	// Bad queries are the client's fault, not a 500.
	if code := e.getJSON("/v1/query?seed=banana", nil); code != http.StatusBadRequest {
		t.Fatalf("bad seed filter = %d, want 400", code)
	}
	if code := e.getJSON("/v1/query?metric=no.such.counter", nil); code != http.StatusBadRequest {
		t.Fatalf("unknown metric = %d, want 400", code)
	}
	// Every aggregation is timed, the refused one too: three answered above
	// plus the unknown metric (the bad seed never reached the store).
	if m, _ := fetchMetrics(t, e); m["dnc_query_seconds_count"] != 4 {
		t.Fatalf("dnc_query_seconds_count = %v, want 4", m["dnc_query_seconds_count"])
	}

	// Crash damage: drain, truncate the store mid-file (torn block), then
	// append garbage (a corrupt tail after valid bytes).
	e.drain()
	storePath := filepath.Join(e.dataDir, storeFile)
	fi, err := os.Stat(storePath)
	if err != nil {
		t.Fatalf("store file missing after drain: %v", err)
	}
	if err := os.Truncate(storePath, fi.Size()/2); err != nil {
		t.Fatalf("truncating store: %v", err)
	}
	f, err := os.OpenFile(storePath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("\xde\xad\xbe\xef this is not a block"))
	f.Close()

	// Restart over the same data dir: openStore truncates the torn tail and
	// backfills every missing cell from the cache.
	e2 := newTestEnv(t, func(c *Config) {
		c.DataDir = e.dataDir
		c.RunCell = fakeRunCell
		c.Workers = 1
		c.CellJobs = 1
	})
	e = e2
	checkQuery("recovered")
	var after queryResponse
	e.getJSON("/v1/query?metric=ipc", &after)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("recovered query answers differ:\nbefore %+v\nafter  %+v", before, after)
	}
	if got := e.srv.Stats().StoreCells; got != 12 {
		t.Fatalf("recovered store holds %d cells, want 12", got)
	}

	// The repaired file passes a full integrity sweep.
	e.drain()
	data, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resultstore.Verify(data); err != nil {
		t.Fatalf("recovered store fails verification: %v", err)
	}

	// Wholesale loss: delete the store outright; the next boot rebuilds it
	// from the cache alone.
	if err := os.Remove(storePath); err != nil {
		t.Fatal(err)
	}
	e3 := newTestEnv(t, func(c *Config) {
		c.DataDir = e.dataDir
		c.RunCell = fakeRunCell
		c.Workers = 1
		c.CellJobs = 1
	})
	e = e3
	checkQuery("rebuilt")
	if got := e.srv.Stats().StoreCells; got != 12 {
		t.Fatalf("rebuilt store holds %d cells, want 12", got)
	}
}

// fillFake admits cells seeds first..first+n-1 of the small spec through
// jobs of at most 64 seeds (the per-spec limit).
func fillFake(e *testEnv, first, n int) {
	e.t.Helper()
	for n > 0 {
		k := min(n, 64)
		spec := smallSpec()
		spec.Seeds = make([]int64, k)
		for i := range spec.Seeds {
			spec.Seeds[i] = int64(first + i)
		}
		if st := e.waitJob(e.submit(spec).ID); st.State != JobDone {
			e.t.Fatalf("fill job state %s, want done", st.State)
		}
		first, n = first+k, n-k
	}
}

// storeShape is store.dncr as it is on disk: size and framed blocks.
func storeShape(t *testing.T, dir string) (size int, blocks []int) {
	t.Helper()
	r, err := resultstore.OpenReader(filepath.Join(dir, storeFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Verify(); err != nil {
		t.Fatalf("store.dncr fails verification: %v", err)
	}
	return r.Size(), r.BlockSizes()
}

// TestQueryNeverWrites: a query is a read. A thousand of them over a
// pending batch leave store.dncr byte for byte where it was — no seal, no
// few-cell segments — and the drain then ends the file with full segments
// plus one tail.
func TestQueryNeverWrites(t *testing.T) {
	e := newTestEnv(t, func(c *Config) { c.RunCell = fakeRunCell })
	const pending = 44
	total := resultstore.DefaultSegmentCells + pending
	fillFake(e, 1, total)

	size, blocks := storeShape(t, e.dataDir)
	if len(blocks) != 1 || len(storeKeys(t, e.dataDir)) != resultstore.DefaultSegmentCells {
		t.Fatalf("before any query the file holds %d blocks, want the one full batch", len(blocks))
	}
	before, err := os.ReadFile(filepath.Join(e.dataDir, storeFile))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if n := queryCount(t, e); n != total {
			t.Fatalf("query %d counts %d cells, want %d (pending batch included)", i, n, total)
		}
	}
	after, err := os.ReadFile(filepath.Join(e.dataDir, storeFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("1000 queries changed store.dncr: %d → %d bytes", len(before), len(after))
	}
	if st := e.srv.Stats(); st.StoreBytes != int64(size) || st.StoreCells != total || st.StoreIndexBytes <= 0 {
		t.Fatalf("stats = %d bytes, %d cells, %d index bytes; want the file's %d, %d and an index", st.StoreBytes, st.StoreCells, st.StoreIndexBytes, size, total)
	}

	e.drain()
	if _, blocks = storeShape(t, e.dataDir); len(blocks) != 2 || blocks[0] != len(before)-8 {
		t.Fatalf("drained file holds blocks %v, want the full segment (%d bytes) plus one tail", blocks, len(before)-8)
	}
	if got := len(storeKeys(t, e.dataDir)); got != total {
		t.Fatalf("drained file holds %d cells, want %d", got, total)
	}
}

// TestQueriesDuringFillAreMonotone queries from several goroutines while
// jobs admit cells (run it with -race): every answer is a consistent
// snapshot, so the cells one client sees counted never decrease, and at
// quiesce every client counts exactly what was admitted.
func TestQueriesDuringFillAreMonotone(t *testing.T) {
	e := newTestEnv(t, func(c *Config) { c.RunCell = fakeRunCell })
	const clients, total = 4, 300
	count := func() (int, error) {
		rec := httptest.NewRecorder()
		e.srv.handleQuery(rec, httptest.NewRequest(http.MethodGet, "/v1/query?metric=m.Retired", nil))
		var qr queryResponse
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("query = %d: %s", rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
			return 0, err
		}
		n := 0
		for _, g := range qr.Groups {
			n += g.N
		}
		return n, nil
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				n, err := count()
				if err != nil || n < last || n > total {
					t.Errorf("client %d: counted %d cells after %d (err %v)", c, n, last, err)
					return
				}
				last = n
			}
		}()
	}
	fillFake(e, 1, total)
	close(stop)
	wg.Wait()
	if n, err := count(); err != nil || n != total {
		t.Fatalf("at quiesce /v1/query counts %d cells (err %v), want the %d admitted", n, err, total)
	}
}

// TestLiveQueryEqualsDrainedFileScan: what a live server answers from its
// index, pending batch unsealed, is float for float what a scan of the
// drained file answers — the `dncstore query -json` of the same data dir.
func TestLiveQueryEqualsDrainedFileScan(t *testing.T) {
	e := newTestEnv(t)
	spec := smallSpec()
	spec.Workloads = []string{"Web-Frontend", "Web-Search"}
	spec.Designs = []string{"baseline", "NL"}
	spec.Seeds = []int64{1, 2, 3}
	if st := e.waitJob(e.submit(spec).ID); st.State != JobDone {
		t.Fatalf("job state %s, want done", st.State)
	}
	if got := storeKeys(t, e.dataDir); len(got) != 0 {
		t.Fatalf("%d cells already sealed; the live answers below would not cover a pending batch", len(got))
	}
	queries := []struct {
		url string
		q   resultstore.Query
	}{
		{"metric=ipc", resultstore.Query{Metric: "ipc"}},
		{"metric=m.Retired", resultstore.Query{Metric: "m.Retired"}},
		{"metric=llc.InstHits&workload=Web-Search", resultstore.Query{Metric: "llc.InstHits", Workloads: []string{"Web-Search"}}},
		{"metric=ipc&design=NL,baseline&seed=1,3", resultstore.Query{Metric: "ipc", Designs: []string{"NL", "baseline"}, Seeds: []int64{1, 3}}},
		{"metric=noc.flits&workload=nope", resultstore.Query{Metric: "noc.flits", Workloads: []string{"nope"}}},
	}
	live := make([]json.RawMessage, len(queries))
	for i, c := range queries {
		var body struct {
			Groups json.RawMessage `json:"groups"`
		}
		if code := e.getJSON("/v1/query?"+c.url, &body); code != http.StatusOK {
			t.Fatalf("GET /v1/query?%s = %d", c.url, code)
		}
		live[i] = body.Groups
	}
	e.drain()
	r, err := resultstore.OpenReader(filepath.Join(e.dataDir, storeFile))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range queries {
		groups, err := resultstore.Scan(r, c.q)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(groups)
		var got bytes.Buffer // the server indents its bodies
		if err := json.Compact(&got, live[i]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s:\nlive server %s\nfile scan   %s", c.url, got.Bytes(), want)
		}
		if i == 0 && len(groups) != 4 {
			t.Fatalf("%d groups, want 4", len(groups))
		}
	}
}

// TestStoreWriteErrorKeepsAnswering closes the store file under the server's
// writer and fills past a batch boundary, so a seal fails and the writer's
// error turns sticky: every admitted cell must still be in /v1/query, the
// failure counted per cell in Stats and /metrics but logged once, and the
// next boot must rebuild the file from the cache.
func TestStoreWriteErrorKeepsAnswering(t *testing.T) {
	var logs bytes.Buffer
	e := newTestEnv(t, func(c *Config) {
		c.RunCell = fakeRunCell
		c.Logger = slog.New(slog.NewTextHandler(&logs, nil))
	})
	e.srv.storeMu.Lock()
	e.srv.store.Close() // the descriptor is gone; the writer does not know yet
	e.srv.storeMu.Unlock()

	const lost = 10
	total := resultstore.DefaultSegmentCells + lost
	fillFake(e, 1, total)
	if n := queryCount(t, e); n != total {
		t.Fatalf("/v1/query counts %d cells over a failed store file, want all %d", n, total)
	}
	// The append that filled the batch failed to seal it; each one after met
	// the sticky error.
	st := e.srv.Stats()
	if st.StoreWriteErrors != lost+1 || st.StoreCells != total {
		t.Fatalf("store_write_errors = %d, store_cells = %d; want %d and %d", st.StoreWriteErrors, st.StoreCells, lost+1, total)
	}
	if m, _ := fetchMetrics(t, e); m["dnc_store_write_errors_total"] != lost+1 || m["dnc_store_index_cells"] != float64(total) {
		t.Fatalf("/metrics: write errors %v, index cells %v; want %d and %d",
			m["dnc_store_write_errors_total"], m["dnc_store_index_cells"], lost+1, total)
	}

	e.drained.Store(true) // this drain reports the store's error
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Drain(ctx); err == nil {
		t.Fatal("drain over a failed store file returned nil")
	}
	if n := strings.Count(logs.String(), "column store write failed"); n != 1 {
		t.Fatalf("the write failure was logged %d times, want once", n)
	}

	e2 := newTestEnv(t, func(c *Config) { c.DataDir = e.dataDir; c.RunCell = fakeRunCell })
	if n := queryCount(t, e2); n != total {
		t.Fatalf("after reboot /v1/query counts %d cells, want %d", n, total)
	}
	e2.drain()
	if got := len(storeKeys(t, e.dataDir)); got != total {
		t.Fatalf("rebuilt store.dncr holds %d cells, want %d", got, total)
	}
}

// FuzzQueryParams throws arbitrary metric, workload, design and seed
// parameters at GET /v1/query on a server holding cells: the answer is a 200
// or a 400, never a panic, and the store's lock is free afterwards.
func FuzzQueryParams(f *testing.F) {
	f.Add("ipc", "", "", "")
	f.Add("m.Retired", "Web-Frontend", "baseline,NL", "1,2")
	f.Add("no.such", "Web-Frontend", "", "3")
	f.Add("", ",,", "\x00", "9223372036854775808")
	f.Add("ipc", "Web-Search", "baseline", "banana")
	f.Add("llc.InstHits", "w,w,w", "NL", "-1, 2 ,")
	e := newTestEnv(f, func(c *Config) { c.RunCell = fakeRunCell })
	spec := smallSpec()
	spec.Designs = []string{"baseline", "NL"}
	spec.Seeds = []int64{1, 2, 3}
	e.waitJob(e.submit(spec).ID)
	f.Fuzz(func(t *testing.T, metric, workload, design, seed string) {
		v := url.Values{"metric": {metric}, "workload": {workload}, "design": {design}, "seed": {seed}}
		rec := httptest.NewRecorder()
		e.srv.handleQuery(rec, httptest.NewRequest(http.MethodGet, "/v1/query?"+v.Encode(), nil))
		switch rec.Code {
		case http.StatusOK:
			var qr queryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil || qr.Groups == nil {
				t.Fatalf("200 with body %q (%v)", rec.Body, err)
			}
			n := 0
			for _, g := range qr.Groups {
				n += g.N
			}
			if n > 6 {
				t.Fatalf("groups count %d cells, 6 were admitted", n)
			}
		case http.StatusBadRequest:
		default:
			t.Fatalf("GET /v1/query?%s = %d: %s", v.Encode(), rec.Code, rec.Body)
		}
		if !e.srv.storeMu.TryLock() {
			t.Fatal("the store lock is still held after the query returned")
		}
		e.srv.storeMu.Unlock()
	})
}

// TestEvictedCellsStayInTheStore: the column store is not the cache's
// mirror once the cache evicts. Cells admitted past a small CacheMaxBytes
// leave the cache but stay in the append-only store, so /v1/query counts
// every admitted cell, across a restart too. Only a store rebuilt from the
// cache (the file deleted) loses the evicted cells.
func TestEvictedCellsStayInTheStore(t *testing.T) {
	probe, err := openResultCache(filepath.Join(t.TempDir(), "probe.jsonl"), 0)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := fakeRunCell(context.Background(), boundCell(10))
	size := insertResult(probe, boundCell(10), r).size
	probe.close()

	dataDir := filepath.Join(t.TempDir(), "data")
	start := func() *testEnv {
		return newTestEnv(t, func(c *Config) {
			c.DataDir = dataDir
			c.RunCell = fakeRunCell
			c.Workers, c.CellJobs = 1, 1
			c.CacheMaxBytes = 4*size + size/2 // room for four cells
		})
	}
	counted := func(e *testEnv, label string) int {
		t.Helper()
		var qr queryResponse
		if code := e.getJSON("/v1/query?metric=ipc", &qr); code != http.StatusOK || len(qr.Groups) != 1 {
			t.Fatalf("[%s] GET /v1/query = %d with %d groups, want 200 with 1", label, code, len(qr.Groups))
		}
		return qr.Groups[0].N
	}

	const admitted = 12
	e := start()
	fillFake(e, 10, admitted) // seeds 10..21: every entry the probe's size
	if st := e.srv.Stats(); st.CacheEntries != 4 || st.CacheEvictions != admitted-4 || st.StoreCells != admitted {
		t.Fatalf("after the fill: %d cached, %d evicted, %d in the store; want 4, %d, %d",
			st.CacheEntries, st.CacheEvictions, st.StoreCells, admitted-4, admitted)
	}
	if n := counted(e, "live"); n != admitted {
		t.Fatalf("[live] /v1/query counts %d cells, want every admitted cell (%d)", n, admitted)
	}
	e.drain()

	e = start()
	if n := counted(e, "restarted"); n != admitted {
		t.Fatalf("[restarted] /v1/query counts %d cells, want %d: the store keeps evicted cells", n, admitted)
	}
	if got := e.srv.Stats().CacheEntries; got != 4 {
		t.Fatalf("[restarted] cache holds %d entries, want 4", got)
	}
	e.drain()

	if err := os.Remove(filepath.Join(dataDir, storeFile)); err != nil {
		t.Fatal(err)
	}
	e = start()
	if n := counted(e, "rebuilt"); n != 4 {
		t.Fatalf("[rebuilt] /v1/query counts %d cells, want the 4 the cache kept", n)
	}
}
