package httpx

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// flakyHandler fails the first n requests with code, then succeeds.
func flakyHandler(n int64, code int) (http.HandlerFunc, *atomic.Int64) {
	var seen atomic.Int64
	return func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) <= n {
			http.Error(w, "not yet", code)
			return
		}
		var in map[string]string
		json.NewDecoder(r.Body).Decode(&in)
		json.NewEncoder(w).Encode(map[string]string{"echo": in["msg"]})
	}, &seen
}

func TestRetryClientRetriesRetryableStatuses(t *testing.T) {
	for _, code := range []int{http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable} {
		h, seen := flakyHandler(2, code)
		srv := httptest.NewServer(h)
		rc := &RetryClient{
			Retries: 3,
			Sleep:   func(context.Context, time.Duration) error { return nil },
		}
		var out map[string]string
		status, err := rc.PostJSON(context.Background(), srv.URL, map[string]string{"msg": "hi"}, &out)
		srv.Close()
		if err != nil || status != http.StatusOK || out["echo"] != "hi" {
			t.Fatalf("code %d: status=%d out=%v err=%v", code, status, out, err)
		}
		if seen.Load() != 3 {
			t.Fatalf("code %d: %d attempts, want 3 (2 failures + success)", code, seen.Load())
		}
	}
}

func TestRetryClientDoesNotRetryTerminalStatuses(t *testing.T) {
	h, seen := flakyHandler(100, http.StatusNotFound)
	srv := httptest.NewServer(h)
	defer srv.Close()
	rc := &RetryClient{
		Retries: 5,
		Sleep:   func(context.Context, time.Duration) error { return nil },
	}
	status, err := rc.PostJSON(context.Background(), srv.URL, map[string]string{}, nil)
	if status != http.StatusNotFound || err == nil {
		t.Fatalf("status=%d err=%v, want 404 with error", status, err)
	}
	if seen.Load() != 1 {
		t.Fatalf("%d attempts on a 404, want 1 (the protocol uses 404 for re-register)", seen.Load())
	}
}

func TestRetryClientRetriesTransportErrors(t *testing.T) {
	h, _ := flakyHandler(0, 0)
	srv := httptest.NewServer(h)
	srv.Close() // connection refused from now on
	rc := &RetryClient{
		Retries: 2,
		Sleep:   func(context.Context, time.Duration) error { return nil },
	}
	status, err := rc.PostJSON(context.Background(), srv.URL, map[string]string{}, nil)
	if status != 0 || err == nil {
		t.Fatalf("status=%d err=%v, want 0 with a transport error after retries", status, err)
	}
}

// TestRetryClientEqualJitterBackoff pins the jitter seam at its extremes:
// the delay before retry k must lie in [step/2, step] of the schedule that
// doubles from 100 ms and is capped at 5 s — the equal-jitter contract.
func TestRetryClientEqualJitterBackoff(t *testing.T) {
	h, _ := flakyHandler(100, http.StatusServiceUnavailable)
	srv := httptest.NewServer(h)
	defer srv.Close()

	steps := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 3200 * time.Millisecond, 5 * time.Second}
	run := func(rnd float64) []time.Duration {
		var slept []time.Duration
		rc := &RetryClient{
			Retries: len(steps),
			Rand:    func() float64 { return rnd },
			Sleep: func(_ context.Context, d time.Duration) error {
				slept = append(slept, d)
				return nil
			},
		}
		rc.PostJSON(context.Background(), srv.URL, map[string]string{}, nil)
		return slept
	}

	min := run(0) // pure fixed half: step/2 each time
	if len(min) != len(steps) {
		t.Fatalf("slept %d times, want %d", len(min), len(steps))
	}
	for i, d := range min {
		if d != steps[i]/2 {
			t.Fatalf("rnd=0 sleep %d = %v, want %v", i, d, steps[i]/2)
		}
	}
	max := run(0.999999)
	for i, d := range max {
		if d < steps[i]/2 || d > steps[i] {
			t.Fatalf("rnd≈1 sleep %d = %v outside [%v, %v]", i, d, steps[i]/2, steps[i])
		}
	}
}

func TestRetryClientContextCancelDuringBackoff(t *testing.T) {
	h, _ := flakyHandler(100, http.StatusServiceUnavailable)
	srv := httptest.NewServer(h)
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	rc := &RetryClient{
		Retries: 10,
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel()
			return ctx.Err()
		},
	}
	_, err := rc.PostJSON(ctx, srv.URL, map[string]string{}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRetryClientCancelledRequestIsNotARetry: a request its caller cancelled
// in flight ends there, with the cancellation as its error, and reaches
// neither observation seam — it says nothing about the server's health.
func TestRetryClientCancelledRequestIsNotARetry(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	}))
	defer srv.Close()
	defer close(release)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		cancel()
	}()
	hooks := 0
	rc := &RetryClient{
		Retries:  3,
		Sleep:    func(context.Context, time.Duration) error { t.Error("slept before a retry"); return nil },
		OnRetry:  func(int) { hooks++ },
		OnGiveUp: func(int) { hooks++ },
	}
	status, err := rc.PostJSON(ctx, srv.URL, map[string]string{}, nil)
	if status != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("status=%d err=%v, want 0 and context.Canceled", status, err)
	}
	if hooks != 0 {
		t.Fatalf("OnRetry/OnGiveUp fired %d times for a cancelled request, want 0", hooks)
	}
}

// TestRetryClientExhaustionFiresGiveUp pins the observation seams on the
// exhaustion path: every scheduled retry reports the status that caused it,
// and OnGiveUp fires exactly once with the final status when the budget
// runs out. The Sleep seam stands in for the clock — no real waiting.
func TestRetryClientExhaustionFiresGiveUp(t *testing.T) {
	h, seen := flakyHandler(100, http.StatusServiceUnavailable)
	srv := httptest.NewServer(h)
	defer srv.Close()
	var retries, giveUps []int
	rc := &RetryClient{
		Retries:  3,
		Sleep:    func(context.Context, time.Duration) error { return nil },
		OnRetry:  func(status int) { retries = append(retries, status) },
		OnGiveUp: func(status int) { giveUps = append(giveUps, status) },
	}
	status, err := rc.PostJSON(context.Background(), srv.URL, map[string]string{}, nil)
	if status != http.StatusServiceUnavailable || err == nil {
		t.Fatalf("status=%d err=%v, want 503 with error after exhaustion", status, err)
	}
	if seen.Load() != 4 {
		t.Fatalf("%d attempts, want 4 (1 + 3 retries)", seen.Load())
	}
	if len(retries) != 3 {
		t.Fatalf("OnRetry fired %d times, want 3", len(retries))
	}
	for i, s := range retries {
		if s != http.StatusServiceUnavailable {
			t.Fatalf("OnRetry[%d] status = %d, want 503", i, s)
		}
	}
	if len(giveUps) != 1 || giveUps[0] != http.StatusServiceUnavailable {
		t.Fatalf("OnGiveUp = %v, want exactly [503]", giveUps)
	}
}

// TestRetryClientExhaustionTransportStatusZero: transport errors (no
// response at all) report status 0 through both seams.
func TestRetryClientExhaustionTransportStatusZero(t *testing.T) {
	h, _ := flakyHandler(0, 0)
	srv := httptest.NewServer(h)
	srv.Close() // connection refused from now on
	var retries, giveUps []int
	rc := &RetryClient{
		Retries:  2,
		Sleep:    func(context.Context, time.Duration) error { return nil },
		OnRetry:  func(status int) { retries = append(retries, status) },
		OnGiveUp: func(status int) { giveUps = append(giveUps, status) },
	}
	status, err := rc.PostJSON(context.Background(), srv.URL, map[string]string{}, nil)
	if status != 0 || err == nil {
		t.Fatalf("status=%d err=%v, want 0 with transport error", status, err)
	}
	if want := []int{0, 0}; len(retries) != 2 || retries[0] != 0 || retries[1] != 0 {
		t.Fatalf("OnRetry statuses = %v, want %v", retries, want)
	}
	if len(giveUps) != 1 || giveUps[0] != 0 {
		t.Fatalf("OnGiveUp = %v, want exactly [0]", giveUps)
	}
}

// TestRetryClientTerminalStatusSkipsHooks: an immediately-terminal status
// (404) is not a retry and not a give-up — it is the protocol's answer.
func TestRetryClientTerminalStatusSkipsHooks(t *testing.T) {
	h, _ := flakyHandler(100, http.StatusNotFound)
	srv := httptest.NewServer(h)
	defer srv.Close()
	fired := 0
	rc := &RetryClient{
		Retries:  5,
		Sleep:    func(context.Context, time.Duration) error { return nil },
		OnRetry:  func(int) { fired++ },
		OnGiveUp: func(int) { fired++ },
	}
	if status, err := rc.PostJSON(context.Background(), srv.URL, map[string]string{}, nil); status != http.StatusNotFound || err == nil {
		t.Fatalf("status=%d err=%v, want 404 with error", status, err)
	}
	if fired != 0 {
		t.Fatalf("hooks fired %d times on a terminal status, want 0", fired)
	}
}

// TestRetryClientHeadersOnEveryAttempt: PostJSONHeaders resends the extra
// headers (the trace-propagation path) on each attempt, not just the first.
func TestRetryClientHeadersOnEveryAttempt(t *testing.T) {
	var got []string
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = append(got, r.Header.Get("X-DNC-Trace-Id"))
		if seen.Add(1) <= 2 {
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	rc := &RetryClient{
		Retries: 3,
		Sleep:   func(context.Context, time.Duration) error { return nil },
	}
	hdr := map[string]string{"X-DNC-Trace-Id": "deadbeefcafef00d"}
	if status, err := rc.PostJSONHeaders(context.Background(), srv.URL, hdr, map[string]string{}, nil); status != http.StatusOK || err != nil {
		t.Fatalf("status=%d err=%v, want 200", status, err)
	}
	if len(got) != 3 {
		t.Fatalf("%d attempts, want 3", len(got))
	}
	for i, v := range got {
		if v != "deadbeefcafef00d" {
			t.Fatalf("attempt %d trace header = %q, want it resent on every attempt", i, v)
		}
	}
}
