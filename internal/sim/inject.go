package sim

import (
	"context"

	wl "dnc/internal/cfg"
)

// StreamWrapper transforms core i's committed instruction stream before it
// reaches the core. The wrapped stream replaces the core's seeded walker;
// returning s unchanged leaves the core on the reference path.
type StreamWrapper func(i int, s wl.Stream) wl.Stream

// RunInjected is RunChecked with each core's walker stream passed through
// wrap. It exists for fault-injection testing: the differential harness
// proves it catches divergences by corrupting one core's committed stream —
// a stand-in for a walker bug — and asserting the oracle reports the first
// divergent instruction. Injected runs are serial and cannot checkpoint or
// resume (the mutation is not part of machine state; see
// ErrInjectedCheckpoint).
func RunInjected(ctx context.Context, rc RunConfig, wrap StreamWrapper) (Result, error) {
	return runChecked(ctx, rc, wrap)
}
