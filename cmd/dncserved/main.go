// Command dncserved is the sweep-as-a-service daemon: a long-running,
// multi-client job server over the simulation engine.
//
// Usage:
//
//	dncserved [-addr localhost:8080] [-data dncserved-data] [-workers 2]
//	          [-cell-jobs N] [-queue-cap 64] [-retries 2]
//	          [-job-timeout 0] [-max-cells 4096]
//	          [-drain-timeout 30s] [-cache-max-bytes 0]
//	          [-lease-ttl 15s] [-lease-max-age 10m] [-lease-batch 16]
//
// Clients POST sweep specs to /v1/jobs and stream results from
// /v1/jobs/{id}/results (see README "Sweep as a service"). Identical cells
// — same workload, design, geometry, and seed — are served from a
// persistent content-addressed cache: runs are deterministic, so a cache
// hit is bit-exact and free. A crash recovers finished cells from that
// cache; cells in flight re-run from cycle 0. SIGINT/SIGTERM triggers a
// graceful drain that stops admissions, cancels in-flight cells, flushes
// persistent state, and exits 0 with every accepted job either completed
// or durably queued for the next start.
//
// With -cache-max-bytes > 0 the result cache is bounded: oldest entries
// are evicted first and the file compacts in place (an evicted cell simply
// re-runs on its next request — determinism makes eviction invisible).
//
// Every cell is leased to a lease client. Remote dncworker processes may
// register at any time and take over cell execution (see cmd/dncworker and
// docs/OPERATIONS.md); while none is live the server's in-process lease
// client, the client of last resort, runs the cells. The -lease-* flags
// tune the worker plane: -lease-ttl is the heartbeat window
// after which a silent worker forfeits its leases (its cells are reassigned
// at no cost), -lease-max-age the one execution budget per attempt (a lease
// held this long is revoked, even from a frozen-but-heartbeating worker, and
// the in-process client stops a run at this age), and -lease-batch the most
// cells one lease request may claim. A lease revoked from a worker still
// running it, or a failure the worker reports as transient, spends one of
// the cell's 1+retries attempts; the cell goes straight back to the head of
// the lease queue.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dnc/internal/service"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "HTTP listen address")
	data := flag.String("data", "dncserved-data", "persistent state directory (jobs, result cache, dead letters)")
	workers := flag.Int("workers", 2, "jobs executed concurrently")
	cellJobs := flag.Int("cell-jobs", 0, "concurrently simulating cells per job (0 = GOMAXPROCS)")
	queueCap := flag.Int("queue-cap", 64, "max queued jobs before submissions get 429 + Retry-After")
	retries := flag.Int("retries", 2, "attempts a cell gets beyond its first after a transient failure or a lease past -lease-max-age")
	jobTimeout := flag.Duration("job-timeout", 0, "whole-job wall-clock budget (0 = none)")
	maxCells := flag.Int("max-cells", 4096, "max cells one submitted spec may expand to")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound on SIGINT/SIGTERM")
	cacheMax := flag.Int64("cache-max-bytes", 0, "result-cache size bound; oldest entries evicted first (0 = unbounded)")
	leaseTTL := flag.Duration("lease-ttl", service.DefaultLeaseTTL, "worker heartbeat window; silent workers forfeit their leases")
	leaseMaxAge := flag.Duration("lease-max-age", service.DefaultLeaseMaxAge, "execution budget per attempt; a lease held this long is revoked and retried")
	leaseBatch := flag.Int("lease-batch", service.DefaultLeaseBatchMax, "max cells per worker lease request")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "dncserved: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	if *retries == 0 {
		*retries = -1 // service.Config reads 0 as its default of 2
	}

	srv, err := service.New(service.Config{
		DataDir:        *data,
		Workers:        *workers,
		CellJobs:       *cellJobs,
		QueueCap:       *queueCap,
		Retries:        *retries,
		JobTimeout:     *jobTimeout,
		MaxCellsPerJob: *maxCells,
		CacheMaxBytes:  *cacheMax,
		LeaseTTL:       *leaseTTL,
		LeaseMaxAge:    *leaseMaxAge,
		LeaseBatchMax:  *leaseBatch,
		Logger:         logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dncserved: %v\n", err)
		os.Exit(1)
	}
	if err := srv.Start(*addr); err != nil {
		fmt.Fprintf(os.Stderr, "dncserved: %v\n", err)
		os.Exit(1)
	}
	logger.Info("serving", "addr", "http://"+srv.Addr(), "data", *data,
		"metrics", "http://"+srv.Addr()+"/metrics")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	<-ctx.Done()
	stop() // restore default signal handling: a second ^C kills immediately
	fmt.Fprintln(os.Stderr, "dncserved: draining (in-flight cells re-run on restart; accepted jobs persist)")

	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "dncserved: drain: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "dncserved: drained cleanly")
}
