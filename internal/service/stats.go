package service

// The declared stat table: the single source of truth for every
// operational counter name the service serves. /v1/healthz is rendered
// from this table, and a golden test checks that every name documented in docs/OPERATIONS.md is
// present here — so code, wire format, and runbook cannot drift apart.
//
// The wire keys are identical to the Stats struct's json tags (the table
// is how they are emitted; the struct remains the typed Go API), so
// existing clients decoding into a struct see no change.

// statEntry is one declared operational stat.
type statEntry struct {
	// Name is the wire key on /v1/healthz.
	Name string
	// Help is the one-line meaning (reused for metric help strings where a
	// metric mirrors the stat).
	Help string
	// Get extracts the value from a Stats snapshot.
	Get func(Stats) any
}

// statTable declares every served stat, in output order.
func statTable() []statEntry {
	return []statEntry{
		{"draining", "Whether the server is shutting down (rejecting submissions).",
			func(s Stats) any { return s.Draining }},
		{"jobs", "Jobs known to this process (all states).",
			func(s Stats) any { return s.Jobs }},
		{"queued", "Jobs accepted but not yet started.",
			func(s Stats) any { return s.Queued }},
		{"running", "Jobs currently sweeping.",
			func(s Stats) any { return s.Running }},
		{"simulated", "Cells simulated to completion by this process.",
			func(s Stats) any { return s.Simulated }},
		{"cache_hits", "Cells served from the content-addressed result cache.",
			func(s Stats) any { return s.CacheHits }},
		{"cache_entries", "Live result-cache entries.",
			func(s Stats) any { return s.CacheEntries }},
		{"cache_bytes", "Live (post-eviction) result-cache payload bytes.",
			func(s Stats) any { return s.CacheBytes }},
		{"cache_evictions", "Cache entries evicted under the size bound.",
			func(s Stats) any { return s.CacheEvictions }},
		{"store_cells", "Cells persisted in the columnar result store (serves /v1/query).",
			func(s Stats) any { return s.StoreCells }},
		{"store_bytes", "On-disk size of the columnar result store file (sealed segments; lags store_cells by up to one batch).",
			func(s Stats) any { return s.StoreBytes }},
		{"store_index_bytes", "Memory held by the column index /v1/query answers from.",
			func(s Stats) any { return s.StoreIndexBytes }},
		{"store_write_errors", "Admitted cells the store file could not take (still answered by /v1/query; the file is rebuilt from the cache at the next start).",
			func(s Stats) any { return s.StoreWriteErrors }},
		{"dead_letters", "Cells on the poisoned-cell list.",
			func(s Stats) any { return s.DeadLetters }},
		{"workers_registered", "Worker registrations ever (this process).",
			func(s Stats) any { return s.WorkersRegistered }},
		{"workers_live", "Live (heartbeating) remote workers right now; at 0 the in-process lease client runs the cells.",
			func(s Stats) any { return s.WorkersLive }},
		{"workers_expired", "Workers reaped for missing their heartbeat window.",
			func(s Stats) any { return s.WorkersExpired }},
		{"lease_depth", "Cells currently leased, to remote workers or the in-process client.",
			func(s Stats) any { return s.LeaseDepth }},
		{"remote_pending", "Cells queued for the next lease request (of a remote worker or the in-process client).",
			func(s Stats) any { return s.RemotePending }},
		{"reassigned", "Leases revoked and returned to the queue (dead or frozen workers).",
			func(s Stats) any { return s.Reassigned }},
		{"remote_admitted", "Fresh results admitted from uploads, the in-process client's included.",
			func(s Stats) any { return s.RemoteAdmitted }},
		{"remote_duplicates", "Bit-identical duplicate uploads acknowledged idempotently (in-process client included).",
			func(s Stats) any { return s.RemoteDuplicates }},
		{"remote_rejected", "Uploads refused by admission verification (in-process client included).",
			func(s Stats) any { return s.RemoteRejected }},
	}
}

// statsMap renders a Stats snapshot through the table — the body served by
// /v1/healthz.
func statsMap(s Stats) map[string]any {
	out := make(map[string]any, len(statTable()))
	for _, e := range statTable() {
		out[e.Name] = e.Get(s)
	}
	return out
}

// statNames lists the declared wire keys (golden-tested against the docs).
func statNames() []string {
	t := statTable()
	out := make([]string, len(t))
	for i, e := range t {
		out[i] = e.Name
	}
	return out
}
