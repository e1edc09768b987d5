package worker

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"dnc/internal/httpx"
	"dnc/internal/telemetry"
)

// maxSummaryErrors bounds the terminal error summary: the most recent
// distinct failures are enough to diagnose a sick worker without holding an
// unbounded history in a long-lived process.
const maxSummaryErrors = 16

// Telemetry is the dncworker-side metric surface: a Prometheus registry
// (served by the dncworker binary on its metrics address), per-status HTTP
// retry counters wired into the RetryClient seams, and a bounded error log
// that becomes the terminal summary at exit. A nil *Telemetry no-ops
// everywhere, so the worker library stays zero-cost when the embedder does
// not ask for metrics.
type Telemetry struct {
	Reg *telemetry.Registry

	Registrations  *telemetry.Counter
	CellsCompleted *telemetry.Counter
	CellsFailed    *telemetry.Counter
	CellsAbandoned *telemetry.Counter
	LeasesRevoked  *telemetry.Counter
	UploadRejected *telemetry.Counter
	Retries        *telemetry.CounterVec
	GiveUps        *telemetry.CounterVec
	ExecSeconds    *telemetry.Histogram
	SlotIdle       *telemetry.Histogram

	inflight atomic.Int64

	mu   sync.Mutex
	errs []cellError
	nerr uint64
}

// cellError is one remembered failure, with the context the structured logs
// carry: which worker, which cell.
type cellError struct {
	Worker string
	Digest string
	Key    string
	Msg    string
}

// NewTelemetry builds the worker metric registry.
func NewTelemetry() *Telemetry {
	reg := telemetry.NewRegistry()
	t := &Telemetry{Reg: reg}
	t.Registrations = reg.Counter("dnc_worker_registrations_total",
		"Registrations with the control plane (re-registrations included).")
	t.CellsCompleted = reg.Counter("dnc_worker_cells_completed_total",
		"Cells executed and uploaded successfully.")
	t.CellsFailed = reg.Counter("dnc_worker_cells_failed_total",
		"Cell executions that ended in an error (reported to the server).")
	t.CellsAbandoned = reg.Counter("dnc_worker_cells_abandoned_total",
		"Executions abandoned without an upload (revocation or shutdown).")
	t.LeasesRevoked = reg.Counter("dnc_worker_leases_revoked_total",
		"Leases the server revoked out from under this worker.")
	t.UploadRejected = reg.Counter("dnc_worker_uploads_rejected_total",
		"Completion uploads the server refused (terminal HTTP error).")
	t.Retries = reg.CounterVec("dnc_worker_http_retries_total", "status",
		"HTTP request retries by status code (transport = connection error).")
	t.GiveUps = reg.CounterVec("dnc_worker_http_giveups_total", "status",
		"HTTP requests abandoned after exhausting the retry budget, by final status.")
	t.ExecSeconds = reg.Histogram("dnc_worker_cell_execution_seconds",
		"Cell execution wall time on this worker.",
		telemetry.DurationBounds(), telemetry.SecondsScale)
	t.SlotIdle = reg.Histogram("dnc_worker_slot_idle_seconds",
		"Time an execution slot stood idle between one cell's run ending and its next cell's run starting.",
		telemetry.DurationBounds(), telemetry.SecondsScale)
	reg.GaugeFunc("dnc_worker_inflight_cells",
		"Cells executing on this worker right now.",
		func() float64 { return float64(t.inflight.Load()) })
	return t
}

// retryStatusLabel maps the RetryClient's status to a bounded label set.
func retryStatusLabel(status int) string {
	if status == 0 {
		return "transport"
	}
	return fmt.Sprintf("%d", status)
}

// InstrumentClient installs the per-status retry counters onto the client's
// observation seams (chaining any hooks already present).
func (t *Telemetry) InstrumentClient(rc *httpx.RetryClient) {
	if t == nil || rc == nil {
		return
	}
	prevRetry, prevGiveUp := rc.OnRetry, rc.OnGiveUp
	rc.OnRetry = func(status int) {
		t.Retries.With(retryStatusLabel(status)).Inc()
		if prevRetry != nil {
			prevRetry(status)
		}
	}
	rc.OnGiveUp = func(status int) {
		t.GiveUps.With(retryStatusLabel(status)).Inc()
		if prevGiveUp != nil {
			prevGiveUp(status)
		}
	}
}

func (t *Telemetry) execStart() {
	if t != nil {
		t.inflight.Add(1)
	}
}

func (t *Telemetry) execEnd() {
	if t != nil {
		t.inflight.Add(-1)
	}
}

// recordError remembers one failure for the exit summary (most recent
// maxSummaryErrors kept).
func (t *Telemetry) recordError(worker, digest, key, msg string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nerr++
	t.errs = append(t.errs, cellError{Worker: worker, Digest: digest, Key: key, Msg: msg})
	if len(t.errs) > maxSummaryErrors {
		t.errs = t.errs[len(t.errs)-maxSummaryErrors:]
	}
}

// Summary renders the terminal report the dncworker binary prints at exit:
// counters plus the most recent failures with their cell context. Empty
// string when the session has nothing to report (no cells touched, no
// errors) so an idle worker exits silently.
func (t *Telemetry) Summary() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	errs := append([]cellError(nil), t.errs...)
	total := t.nerr
	t.mu.Unlock()

	if total == 0 && t.CellsCompleted.Value()+t.CellsFailed.Value()+t.CellsAbandoned.Value()+
		t.LeasesRevoked.Value()+t.UploadRejected.Value() == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "completed=%d failed=%d abandoned=%d revoked=%d uploads_rejected=%d",
		t.CellsCompleted.Value(), t.CellsFailed.Value(), t.CellsAbandoned.Value(),
		t.LeasesRevoked.Value(), t.UploadRejected.Value())
	if total == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "\n%d error(s)", total)
	if total > uint64(len(errs)) {
		fmt.Fprintf(&b, " (last %d shown)", len(errs))
	}
	b.WriteString(":")
	for _, e := range errs {
		fmt.Fprintf(&b, "\n  worker=%s cell=%.12s key=%q: %s", e.Worker, e.Digest, e.Key, e.Msg)
	}
	return b.String()
}
