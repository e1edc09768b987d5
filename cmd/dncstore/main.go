// Command dncstore inspects and maintains columnar result stores
// (internal/resultstore) written by dncbench -store-out and dncserved.
//
// Usage:
//
//	dncstore info    store.dncr
//	dncstore verify  store.dncr
//	dncstore query   [-metric ipc] [-workloads a,b] [-designs x,y]
//	                 [-seeds 1,2] [-json] store.dncr
//	dncstore export  [-hists] store.dncr               (JSONL to stdout)
//	dncstore compact store.dncr compacted.dncr
//
// verify exits non-zero on the first bad block — the cheap integrity sweep
// to run against a store file of unknown provenance. compact rewrites a
// store whose cells arrived one fsync at a time (the dncserved admission
// path produces one tiny segment per cell) into full-size segments, which
// restores the format's compression. Files from builds that stored sampled
// time-series open and answer as before; their series are skipped, and
// compact does not carry them over.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"dnc/internal/resultstore"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "info":
		err = runInfo(args)
	case "verify":
		err = runVerify(args)
	case "query":
		err = runQuery(args)
	case "export":
		err = runExport(args)
	case "compact":
		err = runCompact(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dncstore %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dncstore {info|verify|query|export|compact} [flags] <store.dncr> [out.dncr]")
	os.Exit(2)
}

// oneFile parses flags and returns the single positional store path.
func oneFile(fs *flag.FlagSet, args []string) (string, error) {
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	if fs.NArg() != 1 {
		return "", fmt.Errorf("expected exactly one store file, got %d args", fs.NArg())
	}
	return fs.Arg(0), nil
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	path, err := oneFile(fs, args)
	if err != nil {
		return err
	}
	r, err := resultstore.OpenReader(path)
	if err != nil {
		return err
	}
	cells, err := r.Cells(resultstore.CellOptions{WithHists: true})
	if err != nil {
		return err
	}
	sizes := r.BlockSizes()
	minB, maxB, sumB := 0, 0, 0
	for i, s := range sizes {
		if i == 0 || s < minB {
			minB = s
		}
		if s > maxB {
			maxB = s
		}
		sumB += s
	}
	workloads := map[string]bool{}
	designs := map[string]bool{}
	seeds := map[int64]bool{}
	hists := 0
	for i := range cells {
		workloads[cells[i].Workload] = true
		designs[cells[i].Design] = true
		seeds[cells[i].Seed] = true
		hists += len(cells[i].Hists)
	}
	fmt.Printf("%s: format v%d, %d bytes\n", path, resultstore.Version, r.Size())
	fmt.Printf("blocks:    %d (min %d, max %d, payload+framing %d bytes)\n", len(sizes), minB, maxB, sumB)
	fmt.Printf("cells:     %d (%d histograms)\n", len(cells), hists)
	fmt.Printf("workloads: %s\n", joinSorted(workloads))
	fmt.Printf("designs:   %s\n", joinSorted(designs))
	fmt.Printf("seeds:     %s\n", joinSeeds(seeds))
	return nil
}

func joinSorted(set map[string]bool) string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

func joinSeeds(set map[int64]bool) string {
	out := make([]int64, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	strs := make([]string, len(out))
	for i, s := range out {
		strs[i] = strconv.FormatInt(s, 10)
	}
	return strings.Join(strs, ", ")
}

func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	path, err := oneFile(fs, args)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	blocks, err := resultstore.Verify(data)
	if err != nil {
		return fmt.Errorf("%d valid block(s), then: %w", blocks, err)
	}
	// Verify checks framing and checksums; a full decode additionally
	// exercises every varint in the payloads.
	r, err := resultstore.NewReader(data)
	if err != nil {
		return err
	}
	cells, err := r.Cells(resultstore.CellOptions{WithHists: true})
	if err != nil {
		return fmt.Errorf("blocks ok but payload decode failed: %w", err)
	}
	fmt.Printf("%s: ok — %d block(s), %d cell(s), %d bytes\n", path, blocks, len(cells), len(data))
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	metric := fs.String("metric", resultstore.MetricIPC, "metric column (m.Retired, llc.InstHits, ...) or the derived \"ipc\"")
	workloadsFlag := fs.String("workloads", "", "comma-separated workload filter (default: all)")
	designsFlag := fs.String("designs", "", "comma-separated design filter (default: all)")
	seedsFlag := fs.String("seeds", "", "comma-separated seed filter (default: all)")
	asJSON := fs.Bool("json", false, "emit the groups as JSON instead of a table")
	path, err := oneFile(fs, args)
	if err != nil {
		return err
	}
	q := resultstore.Query{
		Metric:    *metric,
		Workloads: splitCSV(*workloadsFlag),
		Designs:   splitCSV(*designsFlag),
	}
	for _, s := range splitCSV(*seedsFlag) {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q: %w", s, err)
		}
		q.Seeds = append(q.Seeds, v)
	}
	r, err := resultstore.OpenReader(path)
	if err != nil {
		return err
	}
	groups, err := resultstore.Scan(r, q)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(groups)
	}
	fmt.Printf("%-16s %-24s %4s %12s %10s %12s %12s\n",
		"workload", "design", "n", "mean", "ci95", "min", "max")
	for _, g := range groups {
		fmt.Printf("%-16s %-24s %4d %12.6g %10.4g %12.6g %12.6g\n",
			g.Workload, g.Design, g.N, g.Mean, g.CI95, g.Min, g.Max)
	}
	return nil
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func runExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	withHists := fs.Bool("hists", false, "include histogram snapshots")
	path, err := oneFile(fs, args)
	if err != nil {
		return err
	}
	r, err := resultstore.OpenReader(path)
	if err != nil {
		return err
	}
	cells, err := r.Cells(resultstore.CellOptions{WithHists: *withHists})
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	for i := range cells {
		if err := enc.Encode(&cells[i]); err != nil {
			return err
		}
	}
	return nil
}

func runCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("expected <in.dncr> <out.dncr>, got %d args", fs.NArg())
	}
	in, out := fs.Arg(0), fs.Arg(1)
	if _, err := os.Stat(out); err == nil {
		return fmt.Errorf("refusing to overwrite existing %s", out)
	}
	r, err := resultstore.OpenReader(in)
	if err != nil {
		return err
	}
	cells, err := r.Cells(resultstore.CellOptions{WithHists: true})
	if err != nil {
		return err
	}
	w, err := resultstore.OpenWriter(out)
	if err != nil {
		return err
	}
	for i := range cells {
		if _, err := w.Append(cells[i]); err != nil {
			w.Close()
			os.Remove(out)
			return err
		}
	}
	if err := w.Close(); err != nil {
		os.Remove(out)
		return err
	}
	fi, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d cells, %d bytes -> %s: %d bytes (%.1f%%)\n",
		in, len(cells), r.Size(), out, fi.Size(), 100*float64(fi.Size())/float64(r.Size()))
	return nil
}
