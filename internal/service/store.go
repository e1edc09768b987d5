package service

// The column store is the cache's queryable sidecar: every admitted result
// — locally simulated or uploaded by a worker — is also appended to a
// columnar store file (internal/resultstore) under the same first-insert-
// wins key discipline, so aggregate questions ("mean IPC per design ×
// workload") are answered by GET /v1/query scanning the file instead of
// re-parsing the JSONL cache. The cache is the source of truth and the only
// per-cell durable write; the store is an index derived from it. Appends
// collect in the Writer's batch and reach the file as one fsynced segment
// when the batch fills, when a query is about to read the file, and at
// drain — so the file may trail admissions by up to one batch
// (resultstore.DefaultSegmentCells - 1 cells), never the answers. A store
// append failure is logged, never fails admission, and whatever a crash
// cost the file — the unsealed batch, a torn tail (the writer truncates to
// the last checksum-valid block), the file itself — is backfilled from the
// cache on startup via workerproto.ParseKey.

import (
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

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
	s.store, s.storePath = w, path
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

// appendStore adds one admitted result to the column store's pending batch
// (the Writer seals a full batch itself); a cell the store already holds
// costs a key lookup, not a conversion. Failures are logged, not returned:
// the store is derived data, rebuilt from the cache on the next startup.
func (s *Server) appendStore(spec cellSpec, r *runner.ResultJSON) {
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	if s.store == nil || s.store.Has(spec.Key()) {
		return
	}
	if _, err := s.store.Append(storeCell(spec, r)); err != nil {
		s.log.Warn("column store append failed", "key", spec.Key(), "err", err)
	}
}

// storeScan answers one aggregate query against the on-disk store, sealing
// the pending batch first so every cell admitted so far is in the file it
// reads. The lock keeps appends out between the seal and the read.
func (s *Server) storeScan(q resultstore.Query) ([]resultstore.Group, int, error) {
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	if s.store == nil {
		return nil, http.StatusServiceUnavailable, errors.New("service: column store unavailable")
	}
	if err := s.store.Flush(); err != nil {
		return nil, http.StatusInternalServerError, err
	}
	r, err := resultstore.OpenReader(s.storePath)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	groups, err := resultstore.Scan(r, q)
	if err != nil {
		// Unknown metric name or a matched cell lacking the metric: the
		// query, not the store, is at fault.
		return nil, http.StatusBadRequest, err
	}
	return groups, http.StatusOK, nil
}

// storeStats snapshots the store's cell count (pending batch included) and
// on-disk size (sealed segments only, so it lags the count until a seal).
func (s *Server) storeStats() (cells int, bytes int64) {
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	if s.store == nil {
		return 0, 0
	}
	if fi, err := os.Stat(s.storePath); err == nil {
		bytes = fi.Size()
	}
	return s.store.Len(), bytes
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
