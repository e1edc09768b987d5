// Command dncbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dncbench [-scale quick|paper] [-workloads a,b,c] [-only fig16,fig17] [-ablations]
//	         [-jobs N] [-timeout 10m] [-journal sweep.jsonl] [-store-out results.dncr]
//
// Each experiment prints the paper's expected result alongside the
// measured rows, mirroring EXPERIMENTS.md. Simulations fan out across a
// bounded worker pool; a panicking or livelocked configuration is reported
// at the end (non-zero exit) instead of aborting the whole run. With
// -journal, the shared cross-experiment sweeps are recorded as they finish,
// so an interrupted benchmark re-invoked with the same journal resumes
// instead of recomputing; the cells that were executing at the moment of
// interruption re-run from cycle zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dnc/internal/bench"
	"dnc/internal/httpx"
	"dnc/internal/sim/runner"
	"dnc/internal/telemetry"
)

func main() {
	scale := flag.String("scale", "quick", "experiment scale: quick (16 cores, short windows) or paper (16 cores, 200K+200K)")
	only := flag.String("only", "", "comma-separated experiment ids (default: all); see -list")
	workloadsFlag := flag.String("workloads", "", "comma-separated workload names (default: all seven)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	ablations := flag.Bool("ablations", false, "also run the extra ablation sweeps")
	samples := flag.Int("samples", 1, "independently seeded samples pooled per configuration")
	jobs := flag.Int("jobs", 0, "concurrent simulations per sweep (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "per-simulation wall-clock budget (0 = none)")
	journal := flag.String("journal", "", "JSONL run journal: records finished runs and resumes an interrupted benchmark")
	progress := flag.Bool("progress", true, "print a periodic one-line sweep summary (cells done/failed/resumed, rate, ETA) to stderr")
	httpAddr := flag.String("http", "", "serve the sweep's progress as Prometheus /metrics, plus pprof under /debug/pprof/, on this address (e.g. localhost:6060)")
	storeOut := flag.String("store-out", "", "append every completed cell (with occupancy histograms) to this columnar result store; inspect with dncstore")
	intraJobs := flag.Int("intra-jobs", 0, "shard each simulation's cores across this many goroutines (0 = idle CPUs, 1 = serial); bit-exact either way")
	flag.Parse()

	if *list {
		for _, id := range bench.IDs() {
			fmt.Println(id)
		}
		return
	}

	var cfg bench.Config
	switch *scale {
	case "quick":
		cfg = bench.Quick()
	case "paper":
		cfg = bench.Paper()
	default:
		fmt.Fprintf(os.Stderr, "dncbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *workloadsFlag != "" {
		cfg.Workloads = strings.Split(*workloadsFlag, ",")
	}
	cfg.IntraJobs = *intraJobs
	cfg.Samples = *samples
	cfg.Jobs = *jobs
	cfg.Timeout = *timeout
	if *progress {
		cfg.ProgressOut = os.Stderr
	}
	cfg.StorePath = *storeOut
	if *httpAddr != "" {
		if cfg.Progress == nil {
			cfg.Progress = runner.NewProgress()
		}
		reg := telemetry.NewRegistry()
		cfg.Progress.Register(reg)
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", reg.Handler())
		httpx.HandlePprof(mux)
		srv, addr, err := httpx.Serve(*httpAddr, mux)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dncbench: -http: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "dncbench: sweep metrics on http://%s/metrics\n", addr)
	}
	h := bench.New(cfg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h.SetContext(ctx)

	if *journal != "" {
		start := time.Now()
		if err := h.Prewarm(ctx, *journal); err != nil {
			fmt.Fprintf(os.Stderr, "dncbench: prewarm: %v\n", err)
			if ctx.Err() != nil {
				os.Exit(1)
			}
			// Other failures are already recorded on the harness; the
			// experiments still run and the exit code reflects them.
		} else {
			fmt.Printf("prewarm: shared sweeps ready in %.1fs (journal %s)\n\n",
				time.Since(start).Seconds(), *journal)
		}
	}

	ids := bench.IDs()
	if *only != "" {
		ids = strings.Split(*only, ",")
	}

	for _, id := range ids {
		start := time.Now()
		e, ok := h.ByID(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "dncbench: unknown experiment %q (see -list)\n", id)
			os.Exit(2)
		}
		printExperiment(e, time.Since(start))
	}
	if *ablations {
		for _, e := range h.Ablations() {
			printExperiment(e, 0)
		}
	}
	if *storeOut != "" {
		n, err := h.CloseStore()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dncbench: sealing result store: %v\n", err)
			os.Exit(1)
		}
		var bytes int64
		if fi, err := os.Stat(*storeOut); err == nil {
			bytes = fi.Size()
		}
		fmt.Printf("store: %d cells, %d bytes (%s)\n", n, bytes, *storeOut)
	}
	if err := h.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "dncbench: %d simulation failure(s):\n%v\n",
			strings.Count(err.Error(), "\n")+1, err)
		os.Exit(1)
	}
}

func printExperiment(e bench.Experiment, d time.Duration) {
	fmt.Printf("== %s: %s\n", e.ID, e.Title)
	if e.PaperNote != "" {
		fmt.Printf("   (%s)\n", e.PaperNote)
	}
	fmt.Println(e.Table.String())
	if d > 0 {
		fmt.Printf("   [%.1fs]\n", d.Seconds())
	}
	fmt.Println()
}
