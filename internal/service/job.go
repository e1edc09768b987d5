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

	"dnc/internal/jsonl"
)

// JobState is a job's lifecycle position. A job accepted before a drain or
// crash restarts as queued: acceptance and completion are each a durable
// line of the job log, and everything between is recomputed — cheaply,
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
	// re-run after a crash now reports such cells as cached). Only the job
	// directories of builds before PR 50 carried it, and they are no longer
	// read.
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
	// timeout, unwritable job log). Per-cell errors live in the outcomes.
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
// <data>/jobs.jsonl is the job log, in internal/jsonl's discipline. A job's
// acceptance line is what a drain or crash must not lose; a job without a
// terminal line re-queues on startup; a submission the queue refused after
// its acceptance line gets a retire line, so it never comes back.

const (
	jobsFile = "jobs.jsonl" // the job log, under the data dir
	// jobRetired marks the retire line of a refused submission; no job is
	// ever in this state.
	jobRetired JobState = "retired"
)

// jobRecord is one line of the job log. It names the job by ID alone (the
// ID holds its seq): an acceptance line adds the spec, a terminal line the
// state, error and outcomes (result bodies stay in the cache).
type jobRecord struct {
	ID       string    `json:"id"`
	Spec     *Spec     `json:"spec,omitempty"`
	State    JobState  `json:"state,omitempty"`
	Error    string    `json:"error,omitempty"`
	Outcomes []Outcome `json:"outcomes,omitempty"`
}

// terminalRecord is the line that ends j as state.
func (j *job) terminalRecord(state JobState, errMsg string) jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobRecord{ID: j.id, State: state, Error: errMsg, Outcomes: append([]Outcome(nil), j.outcomes...)}
}

// newJob is an accepted job, queued.
func newJob(id string, seq int, spec Spec) *job {
	spec = spec.normalized()
	return &job{id: id, seq: seq, spec: spec, cells: spec.cells(), state: JobQueued}
}

// loadJobs rebuilds every job from the job log and opens the log for
// appending. Jobs with a terminal record are kept for status and results
// queries; the rest are the crash-recovery set. Both come back in
// submission order. maxSeq covers every ID the log names, retired ones too.
func loadJobs(dataDir string) (terminal, pending []*job, maxSeq int, logF *os.File, err error) {
	byID := make(map[string]*job)
	logF, err = jsonl.OpenAppend(filepath.Join(dataDir, jobsFile), func(line []byte) {
		var rec jobRecord
		if json.Unmarshal(line, &rec) != nil || rec.ID == "" {
			return // torn or foreign line
		}
		seq := seqFromID(rec.ID)
		maxSeq = max(maxSeq, seq)
		switch {
		case rec.Spec != nil:
			byID[rec.ID] = newJob(rec.ID, seq, *rec.Spec)
		case rec.State == jobRetired:
			delete(byID, rec.ID)
		case rec.State == JobDone || rec.State == JobFailed:
			if j := byID[rec.ID]; j != nil {
				j.state, j.errMsg, j.outcomes = rec.State, rec.Error, rec.Outcomes
			}
		}
	})
	if err != nil {
		return nil, nil, 0, nil, err
	}
	for _, j := range byID {
		if j.state == JobQueued {
			pending = append(pending, j)
		} else {
			terminal = append(terminal, j)
		}
	}
	sort.Slice(pending, func(i, k int) bool { return pending[i].seq < pending[k].seq })
	sort.Slice(terminal, func(i, k int) bool { return terminal[i].seq < terminal[k].seq })
	return terminal, pending, maxSeq, logF, nil
}

// jobID builds the durable identifier: ordinal plus a spec-digest prefix,
// so operators can spot identical resubmissions at a glance.
func jobID(seq int, spec Spec) string {
	return fmt.Sprintf("j%06d-%s", seq, spec.digest()[:12])
}

// seqFromID recovers the ordinal ("j000017-ab12..." → 17): a job record
// names its job by ID alone.
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
