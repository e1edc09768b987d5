package service

import (
	"dnc/internal/obs"
	"dnc/internal/telemetry"
)

// serverTelemetry is dncserved's metric surface — its one stats surface —
// holding the /metrics registry and the handles the hot paths increment.
// Every Server.Stats field is a series here, read at scrape time from the
// source Stats reads (cache, store, lease table, job table): no
// double bookkeeping on the hot path. Event counters with no existing
// source are real atomics. A nil *serverTelemetry
// (Config.DisableTelemetry) no-ops everywhere: every telemetry type is
// nil-safe, so the enabled/disabled difference is one pointer test.
type serverTelemetry struct {
	reg *telemetry.Registry

	jobsSubmitted *telemetry.Counter
	jobsCompleted *telemetry.Counter

	cellsDeduped          *telemetry.Counter
	cellsFailed           *telemetry.Counter
	cellsDead             *telemetry.Counter
	determinismViolations *telemetry.Counter

	queueWait  *telemetry.Histogram
	cellExec   *telemetry.Histogram
	e2e        *telemetry.Histogram
	uploadSize *telemetry.Histogram
	leaseWait  *telemetry.Histogram
	query      *telemetry.Histogram
}

// newServerTelemetry builds the registry over a live server: scrape-time
// closures read the same sources as Server.Stats, so the two can never
// disagree (the telemetry and chaos suites assert it field by field).
func newServerTelemetry(s *Server) *serverTelemetry {
	reg := telemetry.NewRegistry()
	t := &serverTelemetry{reg: reg}

	t.jobsSubmitted = reg.Counter("dnc_jobs_submitted_total",
		"Sweep jobs accepted at POST /v1/jobs.")
	t.jobsCompleted = reg.Counter("dnc_jobs_completed_total",
		"Jobs reaching a terminal state (done or failed).")

	t.cellsDeduped = reg.Counter("dnc_cells_deduped_total",
		"Cells served from the content-addressed result cache without running.")
	t.cellsFailed = reg.Counter("dnc_cells_failed_total",
		"Cells whose final attempt within a job failed (retries exhausted; drains excluded).")
	t.cellsDead = reg.Counter("dnc_cells_dead_lettered_total",
		"Cells a job skipped without running because their dead-letter circuit was open.")
	t.determinismViolations = reg.Counter("dnc_determinism_violations_total",
		"Uploads refused because a duplicate result was not bit-identical. Any nonzero value is a paging condition.")

	// Monotone counters with an existing source, read at scrape time.
	reg.CounterFunc("dnc_cells_admitted_total",
		"Cells of jobs satisfied by a fresh result (run by a remote worker or the in-process lease client).",
		s.admitted.Load)
	reg.CounterFunc("dnc_cells_reassigned_total",
		"Leases revoked and returned to the queue (dead or frozen workers).",
		func() uint64 { return s.dispatch.stats().Reassigned })
	reg.CounterFunc("dnc_cell_retries_total",
		"Cells sent back to the lease queue after an attempt ended without a result (a transient failure or a progress-budget revocation, retries left).",
		func() uint64 { return s.dispatch.stats().Retried })
	reg.CounterFunc("dnc_cache_hits_total",
		"Result-cache hits (cells served without running).",
		func() uint64 { return s.cache.stats().hits })
	reg.CounterFunc("dnc_cache_evictions_total",
		"Result-cache entries evicted under the size bound.",
		func() uint64 { return s.cache.stats().evictions })
	reg.CounterFunc("dnc_workers_registered_total",
		"Worker registrations ever (this process).",
		func() uint64 { return s.dispatch.stats().WorkersRegistered })
	reg.CounterFunc("dnc_workers_expired_total",
		"Workers reaped for missing their heartbeat window.",
		func() uint64 { return s.dispatch.stats().WorkersExpired })
	reg.CounterFunc("dnc_remote_admitted_total",
		"Fresh results admitted from uploads (the in-process lease client's included).",
		func() uint64 { return s.dispatch.stats().RemoteAdmitted })
	reg.CounterFunc("dnc_remote_duplicates_total",
		"Bit-identical duplicate uploads acknowledged idempotently (in-process lease client included).",
		func() uint64 { return s.dispatch.stats().RemoteDuplicates })
	reg.CounterFunc("dnc_remote_rejected_total",
		"Uploads refused by admission verification (in-process lease client included).",
		func() uint64 { return s.dispatch.stats().RemoteRejected })

	reg.CounterFunc("dnc_store_write_errors_total",
		"Admitted cells the column store file could not take. They stay in /v1/query answers; the file is rebuilt from the cache at the next start.",
		func() uint64 { return s.storeStats().writeErrs })

	reg.GaugeFunc("dnc_store_cells",
		"Cells persisted in the columnar result store (serves /v1/query), the pending batch included.",
		func() float64 { return float64(s.storeStats().cells) })
	reg.GaugeFunc("dnc_store_bytes",
		"On-disk size of the columnar result store file (sealed segments; lags dnc_store_cells by up to one batch).",
		func() float64 { return float64(s.storeStats().bytes) })
	reg.GaugeFunc("dnc_store_index_bytes",
		"Memory held by the column index /v1/query answers from.",
		func() float64 { return float64(s.storeStats().indexBytes) })
	reg.GaugeFunc("dnc_store_index_cells",
		"Cells in the in-memory column index /v1/query answers from (every admitted cell, sealed or pending; counted by the index itself, so it differs from dnc_store_cells only if the two fell out of step).",
		func() float64 { return float64(s.storeStats().indexCells) })
	reg.GaugeFunc("dnc_cache_entries",
		"Live result-cache entries.",
		func() float64 { return float64(s.cache.stats().entries) })
	reg.GaugeFunc("dnc_cache_bytes",
		"Live (post-eviction) result-cache payload bytes.",
		func() float64 { return float64(s.cache.stats().liveBytes) })

	// Levels of the job table, read under the server lock.
	locked := func(fn func() int) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(fn())
		}
	}
	reg.GaugeFunc("dnc_jobs_known",
		"Jobs known to this process (all states).",
		locked(func() int { return len(s.jobs) }))
	reg.GaugeFunc("dnc_queue_depth",
		"Jobs accepted but not yet started.",
		func() float64 { return float64(s.queue.len()) })
	reg.GaugeFunc("dnc_jobs_running",
		"Jobs currently sweeping.",
		locked(func() int { return s.running }))
	reg.GaugeFunc("dnc_dead_letters",
		"Cells on the poisoned-cell list.",
		locked(func() int { return len(s.dead) }))
	reg.GaugeFunc("dnc_workers_live",
		"Live (heartbeating) remote workers.",
		func() float64 { return float64(s.dispatch.stats().WorkersLive) })
	reg.GaugeFunc("dnc_lease_depth",
		"Cells currently leased, to remote workers or the in-process lease client.",
		func() float64 { return float64(s.dispatch.stats().LeaseDepth) })
	reg.GaugeFunc("dnc_remote_pending",
		"Cells queued for the next lease request (of a remote worker or the in-process lease client).",
		func() float64 { return float64(s.dispatch.stats().RemotePending) })

	t.queueWait = reg.Histogram("dnc_queue_wait_seconds",
		"Per-cell wait from enqueue to first execution attempt.",
		telemetry.DurationBounds(), telemetry.SecondsScale)
	t.cellExec = reg.Histogram("dnc_cell_execution_seconds",
		"Per-cell wall time from enqueue to outcome (includes retries and remote round-trips).",
		telemetry.DurationBounds(), telemetry.SecondsScale)
	t.e2e = reg.Histogram("dnc_e2e_latency_seconds",
		"Per-cell end-to-end latency from enqueue to terminal outcome. Phase durations sum exactly to this.",
		telemetry.DurationBounds(), telemetry.SecondsScale)
	t.uploadSize = reg.Histogram("dnc_upload_size_bytes",
		"Remote worker completion upload body sizes (HTTP uploads only).",
		telemetry.SizeBounds(), 1)
	t.leaseWait = reg.Histogram("dnc_lease_wait_seconds",
		"Time a remote worker's HTTP lease call was held by the server before it answered (parked while nothing was pending).",
		telemetry.DurationBounds(), telemetry.SecondsScale)

	t.query = reg.Histogram("dnc_query_seconds",
		"Time to answer or refuse one /v1/query aggregation from the column index (lock wait included, HTTP encoding not).",
		// A query is tens of microseconds, below DurationBounds' first
		// bucket: 4 µs to ~2 s in powers of two.
		obs.ExpBounds(4, 2, 20), telemetry.SecondsScale)

	return t
}

// observeCell is the recorder → histogram bridge: every finalized cell
// feeds its conserved phase durations. Phase offsets are microseconds, the
// histograms' raw unit, so no conversion loses precision.
func (t *serverTelemetry) observeCell(c telemetry.CellSnapshot) {
	if t == nil {
		return
	}
	t.e2e.Observe(uint64(c.E2E()))
	if w := c.Phase("queue-wait"); w > 0 || c.Outcome == "admitted" {
		t.queueWait.Observe(uint64(w))
	}
}
