package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"dnc/internal/resultstore"
	"dnc/internal/service/worker"
	"dnc/internal/sim/runner"
)

// ---- one durable write per admitted cell ----
//
// The contract these tests pin: cache.jsonl is the only per-cell durable
// record of a result; store.dncr is an index derived from it, sealed in
// batches and rebuilt from the cache after any loss; a job is two lines of
// jobs.jsonl and nothing else.

// dataFiles lists every file under the data dir, relative and sorted.
func dataFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out = append(out, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", dir, err)
	}
	sort.Strings(out)
	return out
}

// cacheKeys reads cache.jsonl as written: one key per line, in file order.
func cacheKeys(t *testing.T, dir string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "cache.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, line := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
		var e cacheEntry
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" {
			t.Fatalf("cache.jsonl line %q does not decode: %v", line, err)
		}
		keys = append(keys, e.Key)
	}
	return keys
}

// storeKeys reads the cell keys sealed into store.dncr on disk, sorted.
func storeKeys(t *testing.T, dir string) []string {
	t.Helper()
	r, err := resultstore.OpenReader(filepath.Join(dir, storeFile))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := r.Cells(resultstore.CellOptions{})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(cells))
	for i := range cells {
		keys[i] = cells[i].Key()
	}
	sort.Strings(keys)
	return keys
}

// queryCount is the number of cells /v1/query accounts for.
func queryCount(t *testing.T, e *testEnv) int {
	t.Helper()
	var qr queryResponse
	if code := e.getJSON("/v1/query?metric=ipc", &qr); code != http.StatusOK {
		t.Fatalf("GET /v1/query = %d", code)
	}
	n := 0
	for _, g := range qr.Groups {
		n += g.N
	}
	return n
}

// TestOneDurableWritePerCell runs a cold job through a remote worker and
// again through the in-process lease client alone and reads the contract off
// the data dir: no runner journal, one cache line per distinct cell — a cell
// is admitted by its upload and again by the runner's report of it, so two
// lines would show a second write — and a store file that holds none of the
// cells until the drain seals them, a query in between notwithstanding.
func TestOneDurableWritePerCell(t *testing.T) {
	for _, remote := range []bool{true, false} {
		name := "in-process"
		if remote {
			name = "remote"
		}
		t.Run(name, func(t *testing.T) {
			e := newTestEnv(t)
			if remote {
				e.startWorker(worker.Options{Name: "w1", Capacity: 2})
				waitFor(t, "worker registration", func() bool { return e.srv.Stats().WorkersLive == 1 })
			}
			spec := smallSpec()
			spec.Designs = []string{"baseline", "NL"}
			spec.Seeds = []int64{1, 2, 3}
			st := e.waitJob(e.submit(spec).ID)
			if st.State != JobDone || st.Simulated != 6 {
				t.Fatalf("job = %s with %d simulated, want done with 6", st.State, st.Simulated)
			}
			if got := e.srv.Stats().RemoteAdmitted; got != 6 {
				t.Fatalf("remote_admitted = %d with remote=%v, want every cell admitted from its upload", got, remote)
			}
			want := []string{"cache.jsonl", "deadletters.jsonl", jobsFile, storeFile}
			if got := dataFiles(t, e.dataDir); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("data dir holds %v, want %v", got, want)
			}
			if _, err := os.Stat(filepath.Join(e.dataDir, "jobs")); !os.IsNotExist(err) {
				t.Fatalf("the data dir has a jobs/ directory (stat: %v)", err)
			}
			if recs := jobLines(t, e.dataDir, st.ID); len(recs) != 2 || recs[0].Spec == nil || recs[1].State != JobDone {
				t.Fatalf("jobs.jsonl holds %+v for the job, want its acceptance and its terminal line", recs)
			}
			keys := cacheKeys(t, e.dataDir)
			distinct := map[string]bool{}
			for _, k := range keys {
				distinct[k] = true
			}
			if len(keys) != 6 || len(distinct) != 6 {
				t.Fatalf("cache.jsonl holds %d lines for %d distinct cells, want 6 and 6", len(keys), len(distinct))
			}
			if got := storeKeys(t, e.dataDir); len(got) != 0 {
				t.Fatalf("store.dncr holds %d cells before any seal; admission wrote it per cell", len(got))
			}
			stats := e.srv.Stats()
			if stats.StoreCells != 6 {
				t.Fatalf("store_cells = %d, want the 6 pending cells counted", stats.StoreCells)
			}

			// A query answers from memory and leaves the file alone; the drain
			// seals the batch: one segment for the whole job.
			if n := queryCount(t, e); n != 6 {
				t.Fatalf("/v1/query counts %d cells, want 6", n)
			}
			if got := storeKeys(t, e.dataDir); len(got) != 0 {
				t.Fatalf("store.dncr holds %d cells after a query; a read sealed the batch", len(got))
			}
			if got := e.srv.Stats().StoreBytes; got != stats.StoreBytes {
				t.Fatalf("store_bytes %d → %d across a query, want no change", stats.StoreBytes, got)
			}
			e.drain()
			r, err := resultstore.OpenReader(filepath.Join(e.dataDir, storeFile))
			if err != nil {
				t.Fatal(err)
			}
			if got := len(r.BlockSizes()); got != 1 {
				t.Fatalf("store holds %d blocks after the drain's seal, want 1", got)
			}
			if got := storeKeys(t, e.dataDir); len(got) != 6 || int64(r.Size()) <= stats.StoreBytes {
				t.Fatalf("drained store holds %d cells in %d bytes (was %d), want 6 and growth", len(got), r.Size(), stats.StoreBytes)
			}
		})
	}
}

// TestLocalCellWritesNoSnapshot runs a cell in process (no workers) for
// longer than runner.DefaultCheckpointEvery cycles and watches the data
// dir while it runs and after: a cell in flight is re-run from cycle 0
// after a crash, so nothing may write a mid-cell snapshot — no *.ckpt file
// and no ckpt directory. Nor does any record go through a temporary file or
// a per-job directory: no *.tmp file and no jobs/ directory either.
func TestLocalCellWritesNoSnapshot(t *testing.T) {
	e := newTestEnv(t)
	spec := smallSpec()
	spec.WarmCycles, spec.MeasureCycles = 40_000, 40_000
	if spec.WarmCycles+spec.MeasureCycles <= runner.DefaultCheckpointEvery {
		t.Fatal("the cell ends before the old snapshot cadence; the test tests nothing")
	}
	seen := map[string]bool{}
	scan := func() {
		filepath.WalkDir(e.dataDir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && (d.Name() == "ckpt" || d.Name() == "jobs" ||
				strings.HasSuffix(d.Name(), ".ckpt") || strings.HasSuffix(d.Name(), ".tmp")) {
				rel, _ := filepath.Rel(e.dataDir, path)
				seen[filepath.ToSlash(rel)] = true
			}
			return nil
		})
	}
	id := e.submit(spec).ID
	for deadline := time.Now().Add(2 * time.Minute); time.Now().Before(deadline); {
		if st, _ := e.srv.Job(id); st.State == JobDone || st.State == JobFailed {
			break
		}
		scan()
		time.Sleep(time.Millisecond)
	}
	st := e.waitJob(id)
	if st.State != JobDone || st.Simulated != 1 {
		t.Fatalf("job = %s with %d simulated, want done with 1", st.State, st.Simulated)
	}
	scan()
	if len(seen) != 0 {
		t.Fatalf("a local cell wrote snapshot, temporary or per-job state under the data dir: %v", seen)
	}
}

// copyDataDir snapshots a live server's data dir file by file: what a
// SIGKILL at this instant would leave to the next process (every cache line
// is fsynced before its cell is acknowledged, and every job log line before
// the state it records is published; the store's pending batch is in memory
// and lost). A line half-written at the copy is a torn tail, which the next
// process skips.
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "data")
	for _, rel := range dataFiles(t, src) {
		b, err := os.ReadFile(filepath.Join(src, rel))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dst, rel)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, rel), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestStoreRecoversFromEveryKillPoint stops the server (by snapshotting its
// data dir, as a SIGKILL would leave it) at each point where the store file
// trails the cache, and requires the reboot to end with the store holding
// exactly the cache's keys and /v1/query counting them all.
func TestStoreRecoversFromEveryKillPoint(t *testing.T) {
	job := func(e *testEnv, seeds ...int64) {
		spec := smallSpec()
		spec.Seeds = seeds
		if st := e.waitJob(e.submit(spec).ID); st.State != JobDone {
			t.Fatalf("job state %s, want done", st.State)
		}
	}
	// restart drains the server — the seal a small job can reach — and boots
	// the next process over the same data dir.
	restart := func(e *testEnv) *testEnv {
		e.drain()
		return newTestEnv(t, func(c *Config) { c.DataDir = e.dataDir })
	}
	cases := []struct {
		name string
		// fake runs the cells through fakeRunCell (a case that needs a full
		// batch of them).
		fake bool
		// run drives the live server to the kill point and returns the
		// process to kill; damage then edits the snapshot's store file.
		run         func(e *testEnv) *testEnv
		damage      func(t *testing.T, storePath string)
		cells       int // admitted, all in the cache
		sealedAtCut int // of those, in the store file the kill leaves
	}{
		{
			name:  "after the cache fsync, before any seal",
			run:   func(e *testEnv) *testEnv { job(e, 1, 2, 3); return e },
			cells: 3, sealedAtCut: 0,
		},
		{
			name: "queried, still before any seal",
			run: func(e *testEnv) *testEnv {
				job(e, 1, 2, 3)
				queryCount(t, e) // answers from memory; seals nothing
				return e
			},
			cells: 3, sealedAtCut: 0,
		},
		{
			name: "half a batch pending behind a sealed segment", // sealed at drain
			run: func(e *testEnv) *testEnv {
				job(e, 1, 2, 3)
				e = restart(e) // seals the first three
				job(e, 4, 5)
				return e
			},
			cells: 5, sealedAtCut: 3,
		},
		{
			name: "two cells pending behind a segment sealed by a full batch",
			fake: true,
			run: func(e *testEnv) *testEnv {
				// A spec takes 64 seeds: four jobs fill the batch.
				for next := int64(1); next <= resultstore.DefaultSegmentCells; next += 64 {
					seeds := make([]int64, 64)
					for i := range seeds {
						seeds[i] = next + int64(i)
					}
					job(e, seeds...)
				}
				job(e, -1, -2)
				return e
			},
			cells: resultstore.DefaultSegmentCells + 2, sealedAtCut: resultstore.DefaultSegmentCells,
		},
		{
			name: "torn store tail",
			run: func(e *testEnv) *testEnv {
				job(e, 1, 2, 3)
				e = restart(e)
				job(e, 4, 5)
				return restart(e) // second segment, torn below
			},
			damage: func(t *testing.T, storePath string) {
				r, err := resultstore.OpenReader(storePath)
				if err != nil {
					t.Fatal(err)
				}
				sizes := r.BlockSizes()
				if len(sizes) != 2 {
					t.Fatalf("store holds %d blocks before the tear, want 2", len(sizes))
				}
				if err := os.Truncate(storePath, int64(r.Size()-sizes[1]/2)); err != nil {
					t.Fatal(err)
				}
			},
			cells: 5, sealedAtCut: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fake := func(c *Config) {
				if tc.fake {
					c.RunCell = fakeRunCell
				}
			}
			e := tc.run(newTestEnv(t, fake))
			dir := copyDataDir(t, e.dataDir)
			storePath := filepath.Join(dir, storeFile)
			if tc.damage != nil {
				tc.damage(t, storePath)
			}
			want := cacheKeys(t, dir)
			sort.Strings(want)
			if len(want) != tc.cells {
				t.Fatalf("the cut leaves %d cache lines, want %d", len(want), tc.cells)
			}
			// The tear makes the file undecodable as a whole, which is the
			// point; count what survives only where the file is intact.
			if tc.damage == nil {
				if got := len(storeKeys(t, dir)); got != tc.sealedAtCut {
					t.Fatalf("the cut leaves %d cells in the store file, want %d", got, tc.sealedAtCut)
				}
			}

			e2 := newTestEnv(t, fake, func(c *Config) { c.DataDir = dir })
			if got := storeKeys(t, dir); strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("after reboot store.dncr holds\n%s\nwant exactly the cache's keys\n%s",
					strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			if n := queryCount(t, e2); n != tc.cells {
				t.Fatalf("/v1/query counts %d cells after reboot, want %d", n, tc.cells)
			}
			data, err := os.ReadFile(storePath)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := resultstore.Verify(data); err != nil {
				t.Fatalf("recovered store fails verification: %v", err)
			}
		})
	}
}

// TestQueryAtStreamCloseCountsEveryCell is the reader's side of the batch:
// the moment a job's results stream closes, every cell it delivered is in
// what /v1/query reads, though none has been sealed yet.
func TestQueryAtStreamCloseCountsEveryCell(t *testing.T) {
	e := newTestEnv(t)
	e.startWorker(worker.Options{Name: "w1", Capacity: 2})
	waitFor(t, "worker registration", func() bool { return e.srv.Stats().WorkersLive == 1 })
	total := 0
	for round, seeds := range [][]int64{{1, 2, 3}, {4, 5}, {1, 5, 6}} {
		spec := smallSpec()
		spec.Seeds = seeds
		lines := e.streamResults(e.submit(spec).ID) // follows the job live, returns at EOF
		if len(lines) != len(seeds) {
			t.Fatalf("round %d streamed %d cells, want %d", round, len(lines), len(seeds))
		}
		for _, l := range lines {
			if l.Status == OutcomeSimulated {
				total++
			}
		}
		if n := queryCount(t, e); n != total {
			t.Fatalf("round %d: /v1/query counts %d cells at stream close, %d were admitted", round, n, total)
		}
	}
	if total != 6 {
		t.Fatalf("admitted %d distinct cells, want 6", total)
	}
}

// ---- job records ----

// jobLines returns the job log's lines about one job, in file order.
func jobLines(t *testing.T, dir, id string) []jobRecord {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, jobsFile))
	if err != nil {
		t.Fatal(err)
	}
	var out []jobRecord
	for _, line := range bytes.Split(raw, []byte("\n")) {
		var rec jobRecord
		if json.Unmarshal(line, &rec) == nil && rec.ID == id {
			out = append(out, rec)
		}
	}
	return out
}

// TestDoneRecordHoldsEachFactOnce pins what the job log stores — the
// acceptance line the spec, the terminal line how the job ended and its
// outcomes, each naming the job once and holding nothing the spec or the
// outcomes already say — and that the API view rebuilt from it after a
// restart equals the live one.
func TestDoneRecordHoldsEachFactOnce(t *testing.T) {
	e := newTestEnv(t, func(c *Config) { c.RunCell = fakeRunCell })
	spec := smallSpec()
	spec.Seeds = []int64{1, 2}
	live := e.waitJob(e.submit(spec).ID)
	raw, err := os.ReadFile(filepath.Join(e.dataDir, jobsFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("jobs.jsonl holds %d lines, want 2:\n%s", len(lines), raw)
	}
	wantKeys := [][]string{{"id", "spec"}, {"id", "outcomes", "state"}}
	for i, line := range lines {
		var rec map[string]json.RawMessage
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range rec {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, " ") != strings.Join(wantKeys[i], " ") {
			t.Fatalf("line %d = %s\nwant the fields %v", i, line, wantKeys[i])
		}
		if n := bytes.Count(line, []byte(live.ID)); n != 1 {
			t.Fatalf("line %d names the job %d times, want once: %s", i, n, line)
		}
	}
	var done jobRecord
	if err := json.Unmarshal(lines[1], &done); err != nil || done.State != JobDone || len(done.Outcomes) != 2 {
		t.Fatalf("terminal line = %s (%v)\nwant state done and 2 outcomes", lines[1], err)
	}
	for _, o := range done.Outcomes {
		if n := bytes.Count(lines[1], []byte(o.ResultDigest)); n != 1 {
			t.Fatalf("result digest %s appears %d times in the terminal line, want once", o.ResultDigest, n)
		}
	}

	e.drain()
	e2 := newTestEnv(t, func(c *Config) { c.DataDir = e.dataDir; c.RunCell = fakeRunCell })
	reloaded, ok := e2.srv.Job(live.ID)
	if !ok {
		t.Fatalf("job %s lost across restart", live.ID)
	}
	a, _ := json.Marshal(live)
	b, _ := json.Marshal(reloaded)
	if !bytes.Equal(a, b) {
		t.Fatalf("status after restart differs:\nlive     %s\nreloaded %s", a, b)
	}
}

// ---- results stream wake-up ----

// followStream opens a job's results stream and forwards each line's key as
// it arrives; the channel closes at end of stream. The server sends its
// headers with the first line, so the request itself is made off the test's
// goroutine.
func followStream(t *testing.T, ctx context.Context, url string) <-chan string {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	lines := make(chan string)
	go func() {
		defer close(lines)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				t.Errorf("GET %s: %v", url, err)
			}
			return
		}
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		for {
			var l resultLine
			if dec.Decode(&l) != nil {
				return
			}
			lines <- l.Key
		}
	}()
	return lines
}

// runningJob plants a job in the running state that only the test moves.
func runningJob(e *testEnv, id string) *job {
	j := &job{id: id, state: JobRunning}
	e.srv.mu.Lock()
	e.srv.jobs[id] = j
	e.srv.mu.Unlock()
	return j
}

func recvWithin(t *testing.T, lines <-chan string, d time.Duration, what string) (string, bool) {
	t.Helper()
	select {
	case k, ok := <-lines:
		return k, ok
	case <-time.After(d):
		t.Fatalf("timed out waiting for %s", what)
		return "", false
	}
}

// TestResultsStreamWakesOnOutcome holds a reader on a running job's stream
// and times each new outcome from addOutcome to the reader: the stream is
// woken, not polled, so the median must sit far below the 50 ms tick the
// poll used to impose between one line and the next, and the terminal state
// must close the stream as promptly.
func TestResultsStreamWakesOnOutcome(t *testing.T) {
	e := newTestEnv(t, func(c *Config) { c.RunCell = fakeRunCell })
	j := runningJob(e, "j-wake")
	lines := followStream(t, context.Background(), e.base+"/v1/jobs/j-wake/results")

	const n = 9
	lat := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		key := string(rune('a' + i))
		t0 := time.Now()
		j.addOutcome(Outcome{Key: key, Status: OutcomeFailed})
		if got, ok := recvWithin(t, lines, 5*time.Second, "a streamed line"); !ok || got != key {
			t.Fatalf("streamed %q (open=%v), want %q", got, ok, key)
		}
		lat = append(lat, time.Since(t0))
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	t.Logf("outcome-to-reader latencies: %v", lat)
	if med := lat[n/2]; med > 10*time.Millisecond {
		t.Fatalf("median outcome-to-reader latency %v (all: %v), want well under the old 50 ms poll", med, lat)
	}

	t0 := time.Now()
	j.setState(JobDone, "")
	if k, ok := recvWithin(t, lines, 5*time.Second, "end of stream"); ok {
		t.Fatalf("stream delivered %q after the job ended", k)
	}
	if d := time.Since(t0); d > 25*time.Millisecond {
		t.Fatalf("stream closed %v after the job ended, want it woken at once", d)
	}
}

// TestResultsStreamEndsOnDrainAndClientGone covers the two other ways out
// of a blocked stream: the server drains (the reader gets what exists, then
// EOF), and the client leaves (the handler returns instead of waiting for
// news that nobody will read).
func TestResultsStreamEndsOnDrainAndClientGone(t *testing.T) {
	t.Run("drain", func(t *testing.T) {
		e := newTestEnv(t, func(c *Config) { c.RunCell = fakeRunCell })
		j := runningJob(e, "j-drain")
		j.addOutcome(Outcome{Key: "a", Status: OutcomeFailed})
		lines := followStream(t, context.Background(), e.base+"/v1/jobs/j-drain/results")
		if got, _ := recvWithin(t, lines, 5*time.Second, "the existing line"); got != "a" {
			t.Fatalf("streamed %q, want a", got)
		}
		go e.drain()
		if k, ok := recvWithin(t, lines, 5*time.Second, "end of stream on drain"); ok {
			t.Fatalf("stream delivered %q during drain", k)
		}
	})
	t.Run("client gone", func(t *testing.T) {
		e := newTestEnv(t, func(c *Config) { c.RunCell = fakeRunCell })
		runningJob(e, "j-gone")
		// The API handler behind a listener of the test's own, so that the
		// handler's return is observable.
		entered, returned := make(chan struct{}), make(chan struct{})
		api := e.srv.handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			close(entered)
			api.ServeHTTP(w, r)
			close(returned)
		}))
		defer ts.Close()

		ctx, cancel := context.WithCancel(context.Background())
		lines := followStream(t, ctx, ts.URL+"/v1/jobs/j-gone/results")
		<-entered // in the handler with nothing to deliver
		cancel()
		select {
		case <-returned:
		case <-time.After(5 * time.Second):
			t.Fatal("handler still blocked after its client left")
		}
		for range lines {
		}
	})
}
