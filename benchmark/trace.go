package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"dnc/internal/obs"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own code around its calls into the program. Spans of one
// request share a track; Parent is the span that caused this one (0 = none).
type span struct {
	ID, Parent int
	Track      string
	Name       string
	Start, End time.Duration // since the run began
}

// span records an interval and returns its ID for children to name as their
// parent. Outside the traced rounds it records nothing and returns 0.
func (b *bench) span(parent int, track, name string, start, end time.Time) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.tracing {
		return 0
	}
	id := len(b.spans) + 1
	b.spans = append(b.spans, span{
		ID: id, Parent: parent, Track: track, Name: name,
		Start: start.Sub(b.started), End: end.Sub(b.started),
	})
	return id
}

// startSpan opens an interval that endSpan closes; children started in
// between name the returned ID as their parent.
func (b *bench) startSpan(parent int, track, name string) int {
	now := time.Now()
	return b.span(parent, track, name, now, now)
}

func (b *bench) endSpan(id int) {
	if id == 0 {
		return
	}
	b.mu.Lock()
	b.spans[id-1].End = time.Since(b.started)
	b.mu.Unlock()
}

// spanDurations returns the durations, in ms, of every recorded span with
// the given name.
func (b *bench) spanDurations(name string) []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []float64
	for _, s := range b.spans {
		if s.Name == name {
			out = append(out, millis(s.End-s.Start))
		}
	}
	return out
}

// writeTrace writes the spans as Chrome trace_event JSON (open in Perfetto
// or chrome://tracing) through the repo's own exporter; id and parent ride
// in each event's args.
func writeTrace(w io.Writer, title string, spans []span) error {
	out := make([]obs.Span, len(spans))
	for i, s := range spans {
		out[i] = obs.Span{
			Track: s.Track, Lane: "spans", Name: s.Name,
			Ts: uint64(s.Start / time.Microsecond), Dur: uint64((s.End - s.Start) / time.Microsecond),
			Args: map[string]any{"id": s.ID, "parent": s.Parent},
		}
	}
	return obs.WriteSpanTrace(w, out, obs.SpanTraceMeta{
		Name: title, Clock: "benchmark wall clock, us since the run began",
	})
}

// reportCPUShares turns the traced rounds' CPU profile into
// <layer>.cpu_share: flat samples (the function on top of the stack) by
// package, as a share of all samples, so the shares sum to 1.
func (b *bench) reportCPUShares() error {
	path := filepath.Join(b.cfg.tmp, "cpu.pprof")
	if err := os.WriteFile(path, b.profile, 0o644); err != nil {
		return err
	}
	// -nodefraction=0 keeps the small functions pprof would otherwise drop;
	// Go profiles carry their own symbols, so no binary is needed.
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", path).CombinedOutput()
	if err != nil {
		return fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(out))
	}
	shares, err := parseTop(out)
	if err != nil {
		return err
	}
	for _, l := range cpuShareLayers {
		b.m.set(l+".cpu_share", shares[l], 0)
	}
	return nil
}

var topLine = regexp.MustCompile(`^\s*([0-9.]+)(ns|us|ms|s|mins|hrs)\s+[0-9.]+%\s+[0-9.]+%\s+\S+\s+[0-9.]+%\s+(.+)$`)

// parseTop sums the flat column of `go tool pprof -top` text by layer and
// normalises by the total of the rows.
func parseTop(text []byte) (map[string]float64, error) {
	unit := map[string]float64{"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1, "mins": 60, "hrs": 3600}
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		m := topLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue // header lines
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top: bad flat value in %q", sc.Text())
		}
		v *= unit[m[2]]
		flat[layerOf(m[3])] += v
		total += v
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -top: no samples in the CPU profile")
	}
	for k := range flat {
		flat[k] /= total
	}
	return flat, nil
}

// layerOf maps a profiled function to its cpu_share layer.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "dnc/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, ".("); i >= 0 {
			pkg = rest[:i]
		}
		// sim/runner, service/worker and service/workerproto are layers of
		// their own; any other nested package counts with its parent.
		switch {
		case strings.HasPrefix(pkg, "sim/runner"):
			return "runner"
		case strings.HasPrefix(pkg, "service/workerproto"):
			return "workerproto"
		case strings.HasPrefix(pkg, "service/worker"):
			return "worker"
		}
		pkg, _, _ = strings.Cut(pkg, "/")
		for _, l := range cpuShareLayers {
			if l == pkg {
				return l
			}
		}
		return "go_other" // workloads, stats, trace: table look-ups, never hot
	}
	switch {
	case strings.HasPrefix(fn, "encoding/json."), strings.HasPrefix(fn, "encoding/base64."),
		strings.HasPrefix(fn, "strconv."), strings.HasPrefix(fn, "unicode/utf8."),
		strings.HasPrefix(fn, "reflect."):
		return "go_json"
	case strings.HasPrefix(fn, "net/"), strings.HasPrefix(fn, "net."),
		strings.HasPrefix(fn, "bufio."), strings.HasPrefix(fn, "vendor/golang.org/x/net/"):
		return "go_http"
	case strings.HasPrefix(fn, "syscall."), strings.HasPrefix(fn, "internal/poll."),
		strings.HasPrefix(fn, "os."), strings.HasPrefix(fn, "internal/runtime/syscall."),
		strings.HasPrefix(fn, "runtime/internal/syscall."), strings.HasPrefix(fn, "runtime.netpoll"),
		strings.HasPrefix(fn, "runtime.epoll"), strings.HasPrefix(fn, "runtime.futex"),
		strings.HasPrefix(fn, "runtime.usleep"), strings.HasPrefix(fn, "runtime.write"):
		return "go_syscall"
	case strings.HasPrefix(fn, "runtime."):
		name := strings.TrimPrefix(fn, "runtime.")
		// Allocator names first: mallocgc is allocation, not collection.
		for _, p := range allocFuncs {
			if strings.Contains(name, p) {
				return "go_alloc"
			}
		}
		for _, p := range gcFuncs {
			if strings.Contains(name, p) {
				return "go_gc"
			}
		}
	}
	return "go_other"
}

// The runtime does not label its samples, so collector and allocator time
// are told apart by function name. The lists cover the functions that show
// up on top of the stack in this program's profiles; a runtime function on
// neither list counts as go_other.
var (
	gcFuncs = []string{"gc", "scanobject", "scanblock", "greyobject", "markroot", "markBits",
		"sweep", "wbBuf", "findObject", "spanOf", "heapBits", "scavenge", "bgsweep",
		"pageIndexOf", "typePointers", "tryDeferToSpanScan", "scanstack", "scanframe"}
	allocFuncs = []string{"malloc", "nextFree", "mcache", "mcentral", "mheap", "newobject",
		"makeslice", "growslice", "memclr", "newarray", "makemap", "makechan", "publicationBarrier"}
)
