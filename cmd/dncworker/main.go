// Command dncworker is the remote execution plane for dncserved: a worker
// process that registers with a control plane, pulls leased simulation
// cells in batches, executes them with the exact RunConfig construction the
// server's own in-process lease client uses, and uploads results under each
// cell's content address.
//
// Usage:
//
//	dncworker -server http://host:8080 [-name $(hostname)] [-capacity 1]
//	          [-lease-batch 0] [-poll 250ms]
//
// Run any number of these against one dncserved; the server spreads leases
// across them and reassigns the cells of any worker that dies (missed
// heartbeats) or wedges (heartbeats without progress). A cell's execution
// budget is the server's -lease-max-age: the worker has no timer of its
// own, and abandons a run the moment a heartbeat reports it revoked. Killing a dncworker
// at any moment — including mid-cell — loses nothing: its leases expire and
// the cells re-run elsewhere, and because simulation is deterministic a
// late duplicate upload is bit-identical and acknowledged idempotently.
// SIGINT/SIGTERM abandons held leases immediately (they expire server-side
// within one TTL); the server telling us it is draining lets in-flight
// cells finish first. See docs/OPERATIONS.md for topology and tuning.
//
// With -metrics-addr set the worker serves its own Prometheus /metrics
// (completed/failed/abandoned cells, lease revocations, HTTP retries by
// status). At exit the worker prints a terminal summary: its counters plus
// the most recent cell failures with worker and cell context.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dnc/internal/httpx"
	"dnc/internal/service/worker"
)

func main() {
	server := flag.String("server", "http://localhost:8080", "dncserved base URL")
	name := flag.String("name", defaultName(), "worker label shown to operators")
	capacity := flag.Int("capacity", 1, "cells executed concurrently")
	leaseBatch := flag.Int("lease-batch", 0, "max cells per lease request (0 = server's cap)")
	poll := flag.Duration("poll", 250*time.Millisecond, "pause after a failed lease request (idle workers park on the server; there is no polling cadence)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics on this address (empty = disabled)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "dncworker: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	tel := worker.NewTelemetry()
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", tel.Reg.Handler())
		srv, addr, err := httpx.Serve(*metricsAddr, mux)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dncworker: -metrics-addr: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		logger.Info("metrics serving", "addr", addr)
	}

	err := worker.Run(ctx, worker.Options{
		Server:       *server,
		Name:         *name,
		Capacity:     *capacity,
		LeaseBatch:   *leaseBatch,
		PollInterval: *poll,
		Log:          logger,
		Telemetry:    tel,
	})
	if s := tel.Summary(); s != "" {
		fmt.Fprintf(os.Stderr, "dncworker: session summary: %s\n", s)
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		logger.Error("exiting on error", "err", err.Error())
		os.Exit(1)
	}
	logger.Info("exiting cleanly")
}

func defaultName() string {
	if h, err := os.Hostname(); err == nil {
		return h
	}
	return "dncworker"
}
