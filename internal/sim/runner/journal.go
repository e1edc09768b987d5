package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"dnc/internal/core"
	"dnc/internal/jsonl"
	"dnc/internal/llc"
	"dnc/internal/obs"
	"dnc/internal/sim"
)

// journalEntry is one JSONL line: a finished cell. Failed cells are
// journaled too (with their error) so a post-mortem can read the whole
// sweep from the file, but only "ok" entries are skipped on resume — a
// re-run retries everything that did not complete.
type journalEntry struct {
	ID        string      `json:"id"`
	Status    Status      `json:"status"`
	ElapsedMS int64       `json:"elapsed_ms"`
	Error     string      `json:"error,omitempty"`
	Result    *ResultJSON `json:"result,omitempty"`
}

// ResultJSON mirrors sim.Result minus the design probes (counters only the
// two experiments that study a design's internals read), so a journaled or
// cached cell restores every metric but not per-design probe state. It is
// the canonical wire form of a result: the journal stores it per line, and
// the dncserved result cache content-addresses its encoded bytes — the
// encoding is deterministic (fixed field order, no maps except inside Obs,
// which encoding/json sorts), so equal results give equal digests.
type ResultJSON struct {
	Workload string `json:"workload"`
	Design   string `json:"design"`
	// Engine stamps which engine loop produced the run ("tick", "wheel");
	// provenance only — all engines are bit-exact, and the shard count
	// (sim.Result.Shards) is left out so that every host encodes a cell alike.
	Engine      string         `json:"engine,omitempty"`
	M           core.Metrics   `json:"m"`
	PerCore     []core.Metrics `json:"per_core,omitempty"`
	LLCStats    llc.Stats      `json:"llc"`
	NoCFlits    uint64         `json:"noc_flits"`
	NoCQueued   uint64         `json:"noc_queued"`
	DRAMQueued  uint64         `json:"dram_queued"`
	StorageBits int            `json:"storage_bits"`
	// Obs carries the observability snapshot (histograms and counters; trace
	// events are in-memory only and never journaled).
	Obs *obs.RunObs `json:"obs,omitempty"`
}

// NewResultJSON strips r to its JSON-portable form.
func NewResultJSON(r sim.Result) *ResultJSON {
	return &ResultJSON{
		Workload:    r.Workload,
		Design:      r.Design,
		Engine:      r.Engine,
		M:           r.M,
		PerCore:     r.PerCore,
		LLCStats:    r.LLCStats,
		NoCFlits:    r.NoCFlits,
		NoCQueued:   r.NoCQueued,
		DRAMQueued:  r.DRAMQueued,
		StorageBits: r.StorageBits,
		Obs:         r.Obs,
	}
}

// Result reassembles the sim.Result (without design probes).
func (jr *ResultJSON) Result() sim.Result {
	return sim.Result{
		Workload:    jr.Workload,
		Design:      jr.Design,
		Engine:      jr.Engine,
		M:           jr.M,
		PerCore:     jr.PerCore,
		LLCStats:    jr.LLCStats,
		NoCFlits:    jr.NoCFlits,
		NoCQueued:   jr.NoCQueued,
		DRAMQueued:  jr.DRAMQueued,
		StorageBits: jr.StorageBits,
		Obs:         jr.Obs,
	}
}

// journal is the append-only run record. Reads happen once at open; appends
// are serialized by the sweep's result mutex. Write and sync failures are
// collected (not dropped): a journal that silently loses records would
// defeat resumption, so Sweep surfaces Err to its caller.
type journal struct {
	f    *os.File
	done map[string]sim.Result // cells journaled "ok" by a previous sweep
	errs []error
}

// openJournal loads completed cells from an existing journal (if any) and
// opens it for appending. A corrupt trailing line — e.g. from a process
// killed mid-write — is skipped rather than fatal: the cell it described
// simply re-runs.
func openJournal(path string) (*journal, error) {
	j := &journal{done: make(map[string]sim.Result)}
	f, err := jsonl.OpenAppend(path, func(line []byte) {
		var e journalEntry
		if json.Unmarshal(line, &e) == nil && e.Status == StatusOK && e.Result != nil {
			j.done[e.ID] = e.Result.Result()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("runner: opening journal: %w", err)
	}
	j.f = f
	return j, nil
}

// completed reports whether a previous sweep already finished the cell,
// returning its restored result. Safe on a nil journal.
func (j *journal) completed(id string) (sim.Result, bool) {
	if j == nil {
		return sim.Result{}, false
	}
	r, ok := j.done[id]
	return r, ok
}

// append writes one finished cell as a single JSONL line and syncs it, so a
// kill -9 loses at most the in-flight cells, never a journaled one. Caller
// must serialize.
func (j *journal) append(res CellResult) {
	e := journalEntry{
		ID:        res.ID,
		Status:    res.Status,
		ElapsedMS: res.Elapsed.Milliseconds(),
	}
	if res.Err != nil {
		e.Error = res.Err.Error()
	}
	if res.Status == StatusOK {
		e.Result = NewResultJSON(res.Result)
	}
	if _, err := jsonl.Append(j.f, e); err != nil {
		j.errs = append(j.errs, fmt.Errorf("runner: journalling cell %s: %w", res.ID, err))
	}
}

// Err returns every write/sync failure the journal accumulated. Safe on a
// nil journal.
func (j *journal) Err() error {
	if j == nil {
		return nil
	}
	return errors.Join(j.errs...)
}

// close closes the file, recording failures.
func (j *journal) close() {
	if j == nil || j.f == nil {
		return
	}
	if err := j.f.Close(); err != nil {
		j.errs = append(j.errs, fmt.Errorf("runner: journal close: %w", err))
	}
	j.f = nil
}
