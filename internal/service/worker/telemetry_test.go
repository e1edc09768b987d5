package worker

import (
	"fmt"
	"strings"
	"testing"

	"dnc/internal/httpx"
	"dnc/internal/telemetry"
)

func TestNilTelemetryNoOps(t *testing.T) {
	var tel *Telemetry
	tel.execStart()
	tel.execEnd()
	tel.recordError("w", "d", "k", "boom")
	tel.InstrumentClient(&httpx.RetryClient{})
	if s := tel.Summary(); s != "" {
		t.Fatalf("nil Summary = %q, want empty", s)
	}
}

func TestSummaryEmptyWhenIdle(t *testing.T) {
	tel := NewTelemetry()
	if s := tel.Summary(); s != "" {
		t.Fatalf("idle Summary = %q, want empty", s)
	}
	tel.Registrations.Inc() // registering alone is not worth a report
	if s := tel.Summary(); s != "" {
		t.Fatalf("registered-only Summary = %q, want empty", s)
	}
}

func TestSummaryCountersAndErrorRing(t *testing.T) {
	tel := NewTelemetry()
	tel.CellsCompleted.Add(7)
	tel.CellsFailed.Add(2)
	for i := 0; i < maxSummaryErrors+5; i++ {
		tel.recordError("w1", fmt.Sprintf("digest%020d", i), fmt.Sprintf("v1|cell%d", i), "sim exploded")
	}
	s := tel.Summary()
	if !strings.Contains(s, "completed=7 failed=2") {
		t.Fatalf("summary missing counters: %q", s)
	}
	if !strings.Contains(s, fmt.Sprintf("%d error(s) (last %d shown)", maxSummaryErrors+5, maxSummaryErrors)) {
		t.Fatalf("summary missing truncation note: %q", s)
	}
	// Ring keeps the most recent errors; the oldest fell off.
	if strings.Contains(s, "v1|cell0\"") {
		t.Fatalf("oldest error survived the ring: %q", s)
	}
	lastKey := fmt.Sprintf("v1|cell%d", maxSummaryErrors+4)
	if !strings.Contains(s, lastKey) {
		t.Fatalf("most recent error missing from summary: %q", s)
	}
	if !strings.Contains(s, "worker=w1") || !strings.Contains(s, "cell=digest000000") {
		t.Fatalf("error line missing worker/cell context: %q", s)
	}
}

func TestInstrumentClientChainsHooks(t *testing.T) {
	tel := NewTelemetry()
	var prevRetries, prevGiveUps []int
	rc := &httpx.RetryClient{
		OnRetry:  func(status int) { prevRetries = append(prevRetries, status) },
		OnGiveUp: func(status int) { prevGiveUps = append(prevGiveUps, status) },
	}
	tel.InstrumentClient(rc)

	rc.OnRetry(503)
	rc.OnRetry(0)
	rc.OnGiveUp(0)

	if got := len(prevRetries); got != 2 {
		t.Fatalf("previous OnRetry hook fired %d times, want 2", got)
	}
	if got := len(prevGiveUps); got != 1 {
		t.Fatalf("previous OnGiveUp hook fired %d times, want 1", got)
	}
	if v := tel.Retries.With("503").Value(); v != 1 {
		t.Fatalf("retries{status=503} = %d, want 1", v)
	}
	if v := tel.Retries.With("transport").Value(); v != 1 {
		t.Fatalf("retries{status=transport} = %d, want 1", v)
	}
	if v := tel.GiveUps.With("transport").Value(); v != 1 {
		t.Fatalf("giveups{status=transport} = %d, want 1", v)
	}
}

func TestWorkerRegistryExposition(t *testing.T) {
	tel := NewTelemetry()
	tel.execStart()
	defer tel.execEnd()
	tel.ExecSeconds.Observe(0.25 * telemetry.SecondsScale)
	tel.SlotIdle.Observe(0.002 * telemetry.SecondsScale)

	var b strings.Builder
	tel.Reg.WritePrometheus(&b)
	body := b.String()
	if errs := telemetry.Lint([]byte(body)); len(errs) != 0 {
		t.Fatalf("worker exposition lint: %v", errs)
	}
	if !strings.Contains(body, "dnc_worker_inflight_cells 1") {
		t.Fatalf("inflight gauge not reflecting execStart:\n%s", body)
	}
	if !strings.Contains(body, "dnc_worker_cell_execution_seconds_count 1") {
		t.Fatalf("exec histogram missing observation:\n%s", body)
	}
	if !strings.Contains(body, "dnc_worker_slot_idle_seconds_count 1") {
		t.Fatalf("slot-idle histogram missing observation:\n%s", body)
	}
}
