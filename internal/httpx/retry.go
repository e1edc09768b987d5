package httpx

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"
)

// RetryClient posts JSON requests with bounded, equal-jitter retries. It
// exists for the worker plane, where every request is either naturally
// idempotent (register issues a fresh identity, lease and heartbeat renew
// state) or made idempotent by the server's content-addressed admission
// (a completion delivered twice is acknowledged as a duplicate), so blind
// retry on transport errors and retryable status codes is always safe.
//
// Retries cover connection failures and the three status codes that signal
// "try again": 429 (backpressure), 502 and 503 (server restarting or
// draining). Anything else — including 404, which the worker protocol uses
// for "register again" — is returned to the caller immediately.
type RetryClient struct {
	// C is the underlying client; nil means http.DefaultClient.
	C *http.Client
	// Retries is how many times a failed request is retried (total attempts
	// = Retries + 1). Zero means no retries.
	Retries int
	// Rand and Sleep are test seams: Rand returns [0,1) for the jitter
	// (default math/rand), Sleep waits or returns early with ctx's error
	// (default a timer).
	Rand  func() float64
	Sleep func(ctx context.Context, d time.Duration) error
	// OnRetry, when set, observes every retry as it is scheduled, with the
	// status code that caused it (0 = transport error, no response). OnGiveUp
	// observes a retryable failure abandoned because the retry budget ran
	// out, with the final status. Both exist so a metrics layer can count
	// retry pressure per status without wrapping the transport.
	OnRetry  func(status int)
	OnGiveUp func(status int)
}

// The retry schedule: the step before the first retry is backoff, and it
// doubles per attempt up to backoffMax; equal jitter waits between half the
// step and the whole step.
const (
	backoff    = 100 * time.Millisecond
	backoffMax = 5 * time.Second
)

// retryableStatus reports whether a response status code is worth retrying.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests ||
		code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable
}

// maxRetryBody bounds how much of a response body PostJSON will read; the
// worker protocol's messages are tiny, and a hostile or confused server
// must not be able to balloon the worker's memory.
const maxRetryBody = 16 << 20

// PostJSON posts in as a JSON body to url and decodes the response body
// into out (skipped when out is nil or the body is empty). It returns the
// final attempt's status code; a non-2xx status is also returned as an
// error carrying the response body's leading bytes. Status 0 means no
// attempt produced a response.
func (rc *RetryClient) PostJSON(ctx context.Context, url string, in, out any) (int, error) {
	return rc.PostJSONHeaders(ctx, url, nil, in, out)
}

// PostJSONHeaders is PostJSON with extra request headers on every attempt
// (the worker plane's trace-propagation path: trace, span, and worker IDs
// ride as X-DNC-* headers so server logs stitch to worker attempts).
func (rc *RetryClient) PostJSONHeaders(ctx context.Context, url string, hdr map[string]string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, fmt.Errorf("httpx: encoding request for %s: %w", url, err)
	}
	client := rc.C
	if client == nil {
		client = http.DefaultClient
	}
	rnd := rc.Rand
	if rnd == nil {
		rnd = rand.Float64
	}
	sleep := rc.Sleep
	if sleep == nil {
		sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}

	var lastErr error
	lastStatus := 0
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return 0, fmt.Errorf("httpx: building request for %s: %w", url, err)
		}
		req.Header.Set("Content-Type", "application/json")
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := client.Do(req)
		switch {
		case err != nil:
			lastErr = err
			lastStatus = 0
		default:
			data, readErr := io.ReadAll(io.LimitReader(resp.Body, maxRetryBody))
			resp.Body.Close()
			lastStatus = resp.StatusCode
			if readErr != nil {
				lastErr = fmt.Errorf("httpx: reading response from %s: %w", url, readErr)
			} else if resp.StatusCode/100 != 2 {
				lastErr = fmt.Errorf("httpx: %s: status %d: %s", url, resp.StatusCode, truncate(data, 200))
				if !retryableStatus(resp.StatusCode) {
					return lastStatus, lastErr
				}
			} else {
				if out != nil && len(data) > 0 {
					if err := json.Unmarshal(data, out); err != nil {
						return lastStatus, fmt.Errorf("httpx: decoding response from %s: %w", url, err)
					}
				}
				return lastStatus, nil
			}
		}
		if ctx.Err() != nil {
			// The caller gave up, not the server: neither a retry nor an
			// exhausted budget (a worker abandons parked lease calls and
			// revoked uploads this way as a matter of course).
			return lastStatus, lastErr
		}
		if attempt >= rc.Retries {
			if rc.OnGiveUp != nil {
				rc.OnGiveUp(lastStatus)
			}
			return lastStatus, lastErr
		}
		if rc.OnRetry != nil {
			rc.OnRetry(lastStatus)
		}
		// Equal jitter: half the exponential step fixed, half uniform
		// random, so a fleet of workers retrying after one server restart
		// does not stampede in lockstep.
		d := backoff << uint(attempt)
		if d > backoffMax || d <= 0 {
			d = backoffMax
		}
		d = d/2 + time.Duration(rnd()*float64(d/2))
		if err := sleep(ctx, d); err != nil {
			return lastStatus, err
		}
	}
}

// truncate clips b for error messages.
func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}
