package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// JobState is a job's lifecycle position. A job accepted before a drain or
// crash restarts as queued: acceptance is durable (spec.json), completion
// is durable (done.json), and everything between is recomputed — cheaply,
// because finished cells hit the result cache.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed" // infrastructure failure, not cell failures
)

// OutcomeStatus classifies how one cell of a job was satisfied.
type OutcomeStatus string

const (
	// OutcomeSimulated is a freshly executed cell.
	OutcomeSimulated OutcomeStatus = "simulated"
	// OutcomeCached was served from the content-addressed result cache
	// with zero simulation work.
	OutcomeCached OutcomeStatus = "cached"
	// OutcomeResumed is no longer produced: it marked a cell restored from
	// the per-job runner journal, which the cache made redundant (a job
	// re-run after a crash now reports such cells as cached). Terminal
	// records written by earlier builds still carry it.
	OutcomeResumed OutcomeStatus = "resumed"
	// OutcomeDead was short-circuited by the dead-letter list: the cell
	// has repeatedly failed non-transiently and is not retried.
	OutcomeDead OutcomeStatus = "dead"
	// OutcomeFailed exhausted its attempts this job.
	OutcomeFailed OutcomeStatus = "failed"
)

// Outcome is one cell's disposition within a job. Result bodies live in
// the cache, addressed by Digest; outcomes carry only identity, digests,
// and failure detail, so a job's persisted record stays small.
type Outcome struct {
	Key          string        `json:"key"`
	Digest       string        `json:"digest"`
	Status       OutcomeStatus `json:"status"`
	ResultDigest string        `json:"result_digest,omitempty"`
	Attempts     int           `json:"attempts,omitempty"`
	Error        string        `json:"error,omitempty"`
}

// JobStatus is the API view of a job.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Spec  Spec     `json:"spec"`
	Cells int      `json:"cells"`
	Done  int      `json:"done"`
	// Disposition tallies; Done is their sum.
	Simulated int `json:"simulated"`
	Cached    int `json:"cached"`
	Resumed   int `json:"resumed"`
	Dead      int `json:"dead"`
	Failed    int `json:"failed"`
	// Error is set when State is failed (an infrastructure error: job
	// timeout, unwritable job directory). Per-cell errors live in the outcomes.
	Error string `json:"error,omitempty"`
	// DeadCells surfaces the dead-letter outcomes for quick triage.
	DeadCells []Outcome `json:"dead_cells,omitempty"`
	// Digests maps cell digest to result digest for every satisfied cell —
	// the handle clients use to verify bit-exactness across submissions.
	Digests map[string]string `json:"digests,omitempty"`
}

// job is the server-side state of one accepted sweep.
type job struct {
	id    string
	seq   int
	spec  Spec // normalized
	dir   string
	cells []cellSpec

	mu       sync.Mutex
	state    JobState
	outcomes []Outcome
	errMsg   string
	// changed is closed, and forgotten, by the next new outcome or state
	// change; outcomesFrom makes one on demand. It is how a results stream
	// waits for news without polling.
	changed chan struct{}
}

// wakeLocked releases every results stream waiting on the job.
func (j *job) wakeLocked() {
	if j.changed != nil {
		close(j.changed)
		j.changed = nil
	}
}

func (j *job) setState(s JobState, errMsg string) {
	j.mu.Lock()
	j.state = s
	j.errMsg = errMsg
	j.wakeLocked()
	j.mu.Unlock()
}

func (j *job) addOutcome(o Outcome) {
	j.mu.Lock()
	j.outcomes = append(j.outcomes, o)
	j.wakeLocked()
	j.mu.Unlock()
}

// resetOutcomes clears per-run state when a drained job returns to the
// queue: the next run rebuilds outcomes from the cache.
func (j *job) resetOutcomes() {
	j.mu.Lock()
	j.outcomes = nil
	j.mu.Unlock()
}

// outcomesFrom snapshots outcomes[i:] and the current state, with a channel
// that closes as soon as either has moved on from this snapshot.
func (j *job) outcomesFrom(i int) ([]Outcome, JobState, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.changed == nil {
		j.changed = make(chan struct{})
	}
	var out []Outcome
	if i < len(j.outcomes) {
		out = append(out, j.outcomes[i:]...)
	}
	return out, j.state, j.changed
}

// status builds the API view.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, State: j.state, Spec: j.spec,
		Cells: len(j.cells), Done: len(j.outcomes), Error: j.errMsg,
	}
	for _, o := range j.outcomes {
		switch o.Status {
		case OutcomeSimulated:
			st.Simulated++
		case OutcomeCached:
			st.Cached++
		case OutcomeResumed:
			st.Resumed++
		case OutcomeDead:
			st.Dead++
			st.DeadCells = append(st.DeadCells, o)
		case OutcomeFailed:
			st.Failed++
		}
	}
	if j.state == JobDone || j.state == JobFailed {
		st.Digests = make(map[string]string, len(j.outcomes))
		for _, o := range j.outcomes {
			if o.ResultDigest != "" {
				st.Digests[o.Digest] = o.ResultDigest
			}
		}
	}
	return st
}

// ---- persistence ----
//
// A job directory under <data>/jobs/<id>/ holds:
//
//	spec.json     — written atomically at acceptance; its existence IS the
//	                acceptance record a drain or crash must not lose
//	done.json     — written atomically at terminal completion; absence
//	                means the job re-queues on startup
//
// Older builds also kept a ckpt/ directory of mid-cell snapshots here;
// nothing reads it now, and it may be deleted.

// specRecord is the on-disk acceptance record.
type specRecord struct {
	ID   string `json:"id"`
	Seq  int    `json:"seq"`
	Spec Spec   `json:"spec"`
}

// doneRecord is the on-disk terminal record: how the job ended plus the
// full outcome list. Everything else a JobStatus shows is derived from
// these and spec.json (result bodies stay in the cache). Earlier builds
// wrote the whole JobStatus under "status"; the nesting is kept so their
// records still load.
type doneRecord struct {
	Status struct {
		State JobState `json:"state"`
		Error string   `json:"error,omitempty"`
	} `json:"status"`
	Outcomes []Outcome `json:"outcomes"`
}

// writeFileAtomic writes via temp file + rename so the destination is
// always absent or complete, never torn, and durably: the temp file is
// fsynced before the rename and the directory after it, so a power loss
// once it returns keeps the new file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory, making the entries created or renamed in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (j *job) persistSpec() error {
	b, err := json.MarshalIndent(specRecord{ID: j.id, Seq: j.seq, Spec: j.spec}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return err
	}
	// The job directory's own entry must survive too.
	if err := syncDir(filepath.Dir(j.dir)); err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(j.dir, "spec.json"), b)
}

func (j *job) persistDone() error {
	j.mu.Lock()
	rec := doneRecord{Outcomes: append([]Outcome(nil), j.outcomes...)}
	rec.Status.State, rec.Status.Error = j.state, j.errMsg
	j.mu.Unlock()
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(j.dir, "done.json"), b)
}

// dropAcceptance removes the job directory; used when admission fails
// after the spec was persisted (queue full), so a rejected client's job
// does not resurrect on restart.
func (j *job) dropAcceptance() {
	os.RemoveAll(j.dir)
}

// loadJobs scans the jobs directory and rebuilds state: jobs with a
// done.json are terminal (kept for status/results queries); the rest are
// the crash-recovery set, returned in submission order for re-queueing.
func loadJobs(jobsDir string) (terminal, pending []*job, maxSeq int, err error) {
	ents, err := os.ReadDir(jobsDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, 0, nil
		}
		return nil, nil, 0, err
	}
	for _, de := range ents {
		if !de.IsDir() {
			continue
		}
		dir := filepath.Join(jobsDir, de.Name())
		sb, err := os.ReadFile(filepath.Join(dir, "spec.json"))
		if err != nil {
			continue // half-created acceptance: ignore (client was never acked)
		}
		var rec specRecord
		if err := json.Unmarshal(sb, &rec); err != nil || rec.ID == "" {
			continue
		}
		if rec.Seq == 0 {
			rec.Seq = seqFromID(rec.ID)
		}
		j := &job{
			id: rec.ID, seq: rec.Seq, spec: rec.Spec.normalized(),
			dir: dir, cells: rec.Spec.normalized().cells(), state: JobQueued,
		}
		if j.seq > maxSeq {
			maxSeq = j.seq
		}
		if db, err := os.ReadFile(filepath.Join(dir, "done.json")); err == nil {
			var done doneRecord
			if json.Unmarshal(db, &done) == nil {
				j.state = done.Status.State
				j.outcomes = done.Outcomes
				j.errMsg = done.Status.Error
				terminal = append(terminal, j)
				continue
			}
			// Torn done.json (crash mid-rename is impossible, but a partial
			// .tmp is): treat as unfinished and re-run.
		}
		pending = append(pending, j)
	}
	sort.Slice(pending, func(i, k int) bool { return pending[i].seq < pending[k].seq })
	sort.Slice(terminal, func(i, k int) bool { return terminal[i].seq < terminal[k].seq })
	return terminal, pending, maxSeq, nil
}

// jobID builds the durable identifier: ordinal plus a spec-digest prefix,
// so operators can spot identical resubmissions at a glance.
func jobID(seq int, spec Spec) string {
	return fmt.Sprintf("j%06d-%s", seq, spec.digest()[:12])
}

// seqFromID recovers the ordinal ("j000017-ab12..." → 17); used only as a
// fallback when a spec.json predates the Seq field.
func seqFromID(id string) int {
	if !strings.HasPrefix(id, "j") {
		return 0
	}
	head, _, ok := strings.Cut(id[1:], "-")
	if !ok {
		return 0
	}
	n, _ := strconv.Atoi(head)
	return n
}
