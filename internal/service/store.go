package service

// The column store is the cache's queryable sidecar: every admitted result
// — locally simulated or uploaded by a worker — is also appended to a
// columnar store (internal/resultstore) under the same first-insert-wins
// key discipline, so aggregate questions ("mean IPC per design × workload")
// are answered by GET /v1/query instead of re-parsing the JSONL cache. The
// cache is the source of truth and the only per-cell durable write; the
// store is derived from it, twice over. In memory the Writer keeps a column
// index of every admitted cell, and that is what a query reads: under a read
// lock, with no file I/O, so a query never writes and never holds up an
// admission for longer than an aggregation over resident columns. On disk,
// appends collect in the Writer's batch and reach store.dncr as one fsynced
// segment when the batch fills and at drain — so the file may trail
// admissions by up to one batch (resultstore.DefaultSegmentCells - 1
// cells), never the answers. A store write failure is logged once and
// counted, never fails admission and never drops a cell from the answers;
// whatever it or a crash cost the file — the unsealed batch, a torn tail
// (the writer truncates to the last checksum-valid block), the file itself
// — is backfilled from the cache on startup via workerproto.ParseKey.

import (
	"errors"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dnc/internal/resultstore"
	"dnc/internal/service/workerproto"
	"dnc/internal/sim/runner"
)

// storeFile is the column store's name under DataDir.
const storeFile = "store.dncr"

// storeCell converts an admitted (spec, result) pair into its store row.
func storeCell(spec cellSpec, r *runner.ResultJSON) resultstore.Cell {
	c := resultstore.Cell{
		Workload: spec.Workload, Design: spec.Design, Mode: spec.ModeString(),
		Cores: spec.Cores, Warm: spec.Warm, Measure: spec.Measure, Seed: spec.Seed,
	}
	c.SetResult(r)
	return c
}

// openStore opens (and crash-recovers) the store file, then backfills any
// cached cell the store lacks — the path that repairs a truncated torn
// tail, restores a deleted store wholesale, and seeds the store on the
// first boot over a pre-store data dir.
func (s *Server) openStore() error {
	path := filepath.Join(s.cfg.DataDir, storeFile)
	w, err := resultstore.OpenWriter(path)
	if err != nil {
		return err
	}
	s.store = w
	backfilled := 0
	for _, e := range s.cache.entries() {
		spec, ok := workerproto.ParseKey(e.Key)
		if !ok || e.Result == nil || w.Has(e.Key) {
			continue
		}
		if _, err := w.Append(storeCell(spec, e.Result)); err != nil {
			w.Close()
			s.store = nil
			return err
		}
		backfilled++
	}
	if backfilled > 0 {
		if err := w.Flush(); err != nil {
			w.Close()
			s.store = nil
			return err
		}
		s.log.Info("column store backfilled from cache", "cells", backfilled, "path", path)
	}
	return nil
}

// appendStore adds one admitted result to the column store: its index at
// once, its pending batch for the file (the Writer seals a full batch
// itself); a cell the store already holds costs a key lookup, not a
// conversion. Failures are counted, and the first is logged, not returned:
// the Writer's write error is sticky, so every later cell would repeat it,
// and the file is derived data, rebuilt from the cache on the next startup.
func (s *Server) appendStore(spec cellSpec, r *runner.ResultJSON) {
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	if s.store == nil || s.store.Has(spec.Key()) {
		return
	}
	if _, err := s.store.Append(storeCell(spec, r)); err != nil {
		if s.storeWriteErrs == 0 {
			s.log.Warn("column store write failed; queries keep answering from memory, the file is rebuilt from the cache at the next start",
				"key", spec.Key(), "err", err)
		}
		s.storeWriteErrs++
	}
}

// storeScan answers one aggregate query from the store's in-memory index,
// which holds every cell admitted so far, sealed or pending. It takes the
// read side of storeMu and touches no file. Every call is timed, refused
// ones too.
func (s *Server) storeScan(q resultstore.Query) ([]resultstore.Group, int, error) {
	if s.tel != nil {
		defer func(start time.Time) { s.tel.query.ObserveDuration(time.Since(start)) }(time.Now())
	}
	s.storeMu.RLock()
	defer s.storeMu.RUnlock()
	if s.store == nil {
		return nil, http.StatusServiceUnavailable, errors.New("service: column store unavailable")
	}
	groups, err := s.store.Scan(q)
	if err != nil {
		// Unknown metric name or a matched cell lacking the metric: the
		// query, not the store, is at fault.
		return nil, http.StatusBadRequest, err
	}
	return groups, http.StatusOK, nil
}

// storeStats is a snapshot of the column store, none of it from the file
// system.
type storeStats struct {
	cells      int   // admitted, pending batch included
	bytes      int64 // store.dncr: sealed segments only, so it lags cells until a seal
	indexCells int   // what the in-memory query index covers: cells, or Append has a bug
	indexBytes int
	writeErrs  uint64
}

func (s *Server) storeStats() storeStats {
	s.storeMu.RLock()
	defer s.storeMu.RUnlock()
	st := storeStats{writeErrs: s.storeWriteErrs}
	if s.store != nil {
		st.cells, st.bytes = s.store.Len(), s.store.Size()
		st.indexCells, st.indexBytes = s.store.IndexCells(), s.store.IndexBytes()
	}
	return st
}

// closeStore seals the pending batch and closes the store (idempotent).
func (s *Server) closeStore() error {
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	if s.store == nil {
		return nil
	}
	err := s.store.Close()
	s.store = nil
	return err
}

// handleQuery answers an aggregate metric query from the column store:
//
//	GET /v1/query?metric=ipc&workload=a,b&design=x,y&seed=1,2
//
// metric defaults to ipc (a derived metric; any stored counter column like
// m.Retired or llc.InstHits works too); empty tag filters mean "any". The
// response is one aggregate row per matching design × workload pair.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := resultstore.Query{
		Metric:    r.URL.Query().Get("metric"),
		Workloads: splitList(r.URL.Query().Get("workload")),
		Designs:   splitList(r.URL.Query().Get("design")),
	}
	if q.Metric == "" {
		q.Metric = resultstore.MetricIPC
	}
	for _, tok := range splitList(r.URL.Query().Get("seed")) {
		n, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, errors.New("service: seed filter must be a comma-separated list of integers"))
			return
		}
		q.Seeds = append(q.Seeds, n)
	}
	groups, code, err := s.storeScan(q)
	if err != nil {
		writeError(w, code, err)
		return
	}
	if groups == nil {
		groups = []resultstore.Group{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"metric": q.Metric, "groups": groups})
}

// splitList parses a comma-separated query parameter, dropping empties.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}
