// Package workerproto is the wire protocol between the dncserved control
// plane and remote dncworker processes. It holds exactly the types both
// sides must agree on — the cell specification (the unit of leased work,
// whose content address is the admission check on upload) and the four
// work-API message pairs — so the server and the worker cannot drift apart
// on what a cell is or how its identity is computed.
//
// The protocol is HTTP/JSON over four endpoints:
//
//	POST /v1/workers/register       RegisterRequest  → RegisterResponse
//	POST /v1/workers/{id}/lease     LeaseRequest     → LeaseResponse
//	POST /v1/workers/{id}/heartbeat HeartbeatRequest → HeartbeatResponse
//	POST /v1/cells/{digest}/complete CompleteRequest → CompleteResponse
//
// Execution is at-least-once: a lease that expires (missed heartbeats, a
// frozen worker) is reassigned, and the original holder may still finish
// and upload. Determinism makes that safe — two executions of the same cell
// are bit-identical, the server verifies every upload's content address and
// admits into a first-insert-wins cache, so duplicates are provably
// harmless and are acknowledged idempotently.
package workerproto

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"dnc/internal/core"
	"dnc/internal/isa"
	"dnc/internal/prefetch"
	"dnc/internal/sim"
	"dnc/internal/sim/runner"
	"dnc/internal/workloads"
)

// CellSpec is one simulation point: the complete set of inputs that
// determine a deterministic run's output. Its Key is the canonical identity
// string and its Digest the content address under which the result is
// cached, deduplicated, and leased to workers.
type CellSpec struct {
	Workload string   `json:"workload"`
	Design   string   `json:"design"`
	Mode     isa.Mode `json:"mode"`
	Cores    int      `json:"cores"`
	Warm     uint64   `json:"warm"`
	Measure  uint64   `json:"measure"`
	Seed     int64    `json:"seed"`
}

// Key is the canonical, human-readable cell identity. The "v1" prefix
// versions the keying scheme: any change to what determines a result
// (simulator semantics are pinned separately by the difftest suite) must
// bump it so stale cache entries can never alias new cells.
func (c CellSpec) Key() string {
	return fmt.Sprintf("v1|w=%s|d=%s|m=%s|c=%d|warm=%d|meas=%d|seed=%d",
		c.Workload, c.Design, c.ModeString(), c.Cores, c.Warm, c.Measure, c.Seed)
}

// ModeString is the mode's canonical key token ("fixed" or "variable").
func (c CellSpec) ModeString() string {
	if c.Mode == isa.Variable {
		return "variable"
	}
	return "fixed"
}

// ParseKey inverts Key: it parses a canonical v1 cell-identity string back
// into its spec. The result cache persists keys, so rebuilding derived
// artifacts from the cache — the column-store backfill on dncserved
// startup — means recovering each cell's tags from its key alone. A key
// from a different keying-scheme version, or any malformed string, returns
// false. (Workload and design names never contain '|'; the catalog and
// preset tables enforce that implicitly by construction.)
func ParseKey(key string) (CellSpec, bool) {
	parts := strings.Split(key, "|")
	if len(parts) != 8 || parts[0] != "v1" {
		return CellSpec{}, false
	}
	var c CellSpec
	fields := []struct {
		prefix string
		set    func(string) bool
	}{
		{"w=", func(v string) bool { c.Workload = v; return v != "" }},
		{"d=", func(v string) bool { c.Design = v; return v != "" }},
		{"m=", func(v string) bool {
			switch v {
			case "fixed":
				c.Mode = isa.Fixed
			case "variable":
				c.Mode = isa.Variable
			default:
				return false
			}
			return true
		}},
		{"c=", func(v string) bool {
			n, err := strconv.Atoi(v)
			c.Cores = n
			return err == nil
		}},
		{"warm=", func(v string) bool {
			n, err := strconv.ParseUint(v, 10, 64)
			c.Warm = n
			return err == nil
		}},
		{"meas=", func(v string) bool {
			n, err := strconv.ParseUint(v, 10, 64)
			c.Measure = n
			return err == nil
		}},
		{"seed=", func(v string) bool {
			n, err := strconv.ParseInt(v, 10, 64)
			c.Seed = n
			return err == nil
		}},
	}
	for i, f := range fields {
		p := parts[i+1]
		if !strings.HasPrefix(p, f.prefix) || !f.set(p[len(f.prefix):]) {
			return CellSpec{}, false
		}
	}
	return c, true
}

// Digest is the cell's content address: SHA-256 of Key, hex-encoded. A
// completion upload must carry a spec whose Digest matches the URL it is
// posted to; anything else is rejected before touching the cache.
func (c CellSpec) Digest() string {
	h := sha256.Sum256([]byte(c.Key()))
	return hex.EncodeToString(h[:])
}

// Valid reports whether the spec names a known workload and design — the
// check a worker (or the server's admission path) runs before building
// simulation state from an untrusted spec.
func (c CellSpec) Valid() bool {
	_, okD := prefetch.FindDesign(c.Design)
	return okD && slices.Contains(workloads.Names, c.Workload) && c.Cores >= 1
}

// RunConfig builds the cell's simulation configuration exactly as the bench
// harness does: preset workload parameters, catalog design constructor,
// default core config with the design's prefetch-buffer size. Every lease
// client — the server's in-process one and remote workers — calls this,
// which is what makes their results bit-identical.
func (c CellSpec) RunConfig() sim.RunConfig {
	e, _ := prefetch.FindDesign(c.Design) // validated before execution
	cc := core.DefaultConfig()
	cc.PrefetchBufferEntries = e.PrefetchBufferEntries
	return sim.RunConfig{
		Workload:      workloads.Params(c.Workload, c.Mode),
		NewDesign:     e.New,
		Cores:         c.Cores,
		WarmCycles:    c.Warm,
		MeasureCycles: c.Measure,
		Seed:          c.Seed,
		Core:          cc,
	}
}

// ---- work-API messages ----

// ErrUnknownWorker answers a lease or heartbeat whose worker registration
// expired or never existed: register again. Over HTTP it is a 404.
var ErrUnknownWorker = errors.New("unknown or expired worker")

// RegisterRequest announces a worker to the control plane.
type RegisterRequest struct {
	// Name is a human-readable label (hostname, pod name) for operators;
	// identity is the server-issued WorkerID, not the name.
	Name string `json:"name"`
	// Capacity is how many cells the worker executes concurrently; the
	// server uses it only for accounting.
	Capacity int `json:"capacity"`
}

// RegisterResponse issues the worker its identity and the lease timing
// contract it must honor.
type RegisterResponse struct {
	WorkerID string `json:"worker_id"`
	// LeaseTTLMS is the heartbeat window in milliseconds: a worker silent
	// for longer forfeits every lease it holds.
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	// HeartbeatMS is the cadence the worker should beat at (a fraction of
	// the TTL, leaving room for lost requests).
	HeartbeatMS int64 `json:"heartbeat_ms"`
	// LeaseBatchMax caps how many cells one lease request may claim.
	LeaseBatchMax int `json:"lease_batch_max"`
}

// LeaseRequest pulls a batch of cells.
type LeaseRequest struct {
	// Max is the most cells the worker wants (clamped to LeaseBatchMax).
	Max int `json:"max"`
}

// Lease is one cell granted to a worker.
type Lease struct {
	Digest string   `json:"digest"`
	Key    string   `json:"key"`
	Spec   CellSpec `json:"spec"`
	// TraceID and SpanID are the telemetry identity of the cell's journey:
	// the trace is the submitting job's, the span is derived from the cell's
	// content key. The worker echoes both (plus its own ID) as X-DNC-*
	// headers on its completion upload so server-side logs and timelines
	// stitch worker attempts into the job's trace. Empty when the server
	// runs with telemetry disabled.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
}

// LeaseResponse returns the granted batch. The server holds a lease request
// it has nothing to grant until it has (a long poll), so an empty batch means
// one heartbeat period passed without work, and the worker asks again at once.
type LeaseResponse struct {
	Leases []Lease `json:"leases"`
	// Draining tells the worker the server is shutting down: finish what
	// you hold, expect no more work.
	Draining bool `json:"draining"`
}

// HeartbeatRequest renews the worker's leases.
type HeartbeatRequest struct {
	// Active lists the cell digests the worker still holds (leased but not
	// yet completed), so the server can cross-check its lease table.
	Active []string `json:"active,omitempty"`
}

// HeartbeatResponse reports leases the server has revoked (expired,
// frozen past the progress budget, or reassigned); the worker must abandon
// them — any eventual upload is still safe, just possibly redundant.
type HeartbeatResponse struct {
	Revoked []string `json:"revoked,omitempty"`
}

// CompleteRequest uploads one finished cell: a result on success, an error
// on failure. Spec is mandatory — the server recomputes its Digest and
// refuses the upload if it does not match the URL, so a corrupted or torn
// body can never be admitted under the wrong content address.
type CompleteRequest struct {
	WorkerID string             `json:"worker_id"`
	Spec     CellSpec           `json:"spec"`
	Result   *runner.ResultJSON `json:"result,omitempty"`
	// Error carries a failed execution's message (Result nil).
	Error string `json:"error,omitempty"`
	// Transient marks the failure worth retrying (the run ended on a
	// deadline, as opposed to a deterministic panic). A worker sets no
	// deadline of its own: the server's progress budget revokes a lease
	// that runs too long, and a revoked cell uploads nothing.
	Transient bool `json:"transient,omitempty"`
}

// Completion status values returned in CompleteResponse.Status.
const (
	// StatusAdmitted: a fresh result entered the cache.
	StatusAdmitted = "admitted"
	// StatusDuplicate: the cache already held a bit-identical result (an
	// expired lease finishing late, or at-least-once redelivery); the
	// upload is acknowledged idempotently.
	StatusDuplicate = "duplicate"
	// StatusFailureRecorded: the reported execution failure was delivered
	// to the waiting job.
	StatusFailureRecorded = "failure-recorded"
)

// CompleteResponse acknowledges an upload.
type CompleteResponse struct {
	Status string `json:"status"`
}
