package jsonl

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func collect(t *testing.T, path string) ([]string, *os.File) {
	t.Helper()
	var lines []string
	f, err := OpenAppend(path, func(line []byte) { lines = append(lines, string(line)) })
	if err != nil {
		t.Fatalf("OpenAppend: %v", err)
	}
	return lines, f
}

// TestOpenAppendTornTail is the discipline the journal, the result cache, the
// dead-letter ledger and the job log share: a missing file is an empty one,
// a torn last line is handed over like any other (the caller fails to decode
// it) and never glued to the next append, and blank lines are not records.
func TestOpenAppendTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	lines, f := collect(t, path)
	if len(lines) != 0 {
		t.Fatalf("a missing file yielded %q", lines)
	}
	f.WriteString(`{"a":1}` + "\n\n" + `{"b":2}` + "\n" + `{"torn":`)
	f.Close()

	lines, f = collect(t, path)
	if got := strings.Join(lines, "|"); got != `{"a":1}|{"b":2}|{"torn":` {
		t.Fatalf("lines = %s", got)
	}
	f.WriteString(`{"c":3}` + "\n")
	f.Close()

	lines, f = collect(t, path)
	f.Close()
	if got := strings.Join(lines, "|"); got != `{"a":1}|{"b":2}|{"torn":|{"c":3}` {
		t.Fatalf("after an append onto a torn tail, lines = %s", got)
	}
	// A file that ends cleanly gets no extra newline.
	before, _ := os.ReadFile(path)
	_, f = collect(t, path)
	f.Close()
	if after, _ := os.ReadFile(path); string(after) != string(before) {
		t.Fatalf("reopening a clean file changed it:\n%q\n%q", before, after)
	}
}

// TestOpenAppendLongLine holds the line limit where the result files need it:
// a 16-core result with its observability snapshot is well past bufio's 64 KB
// default.
func TestOpenAppendLongLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	long := strings.Repeat("x", 1<<20)
	if err := os.WriteFile(path, []byte(long+"\nshort\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	lines, f := collect(t, path)
	f.Close()
	if len(lines) != 2 || lines[0] != long || lines[1] != "short" {
		t.Fatalf("got %d lines, first of %d bytes", len(lines), len(lines[0]))
	}
}

func TestOpenAppendUnreadable(t *testing.T) {
	if _, err := OpenAppend(t.TempDir(), func([]byte) {}); err == nil {
		t.Fatal("opening a directory as a log succeeded")
	}
}

// TestAppend writes records from several goroutines at once: every line
// decodes on its own, n is each line's length, and a record that cannot be
// encoded or written is an error that leaves no line behind.
func TestAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	_, f := collect(t, path)
	const writers, each = 4, 50
	var wg sync.WaitGroup
	var total atomic.Int64
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				n, err := Append(f, map[string]any{"w": w, "i": i, "pad": strings.Repeat("p", 100*w)})
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				total.Add(int64(n))
			}
		}()
	}
	wg.Wait()
	if n, err := Append(f, make(chan int)); err == nil || n != 0 {
		t.Fatalf("appending an unencodable value = %d, %v; want 0 and an error", n, err)
	}
	f.Close()
	if fi, err := os.Stat(path); err != nil || fi.Size() != total.Load() {
		t.Fatalf("file holds %v bytes (%v), the appends reported %d", fi.Size(), err, total.Load())
	}
	lines, f := collect(t, path)
	f.Close()
	seen := map[string]bool{}
	for _, l := range lines {
		var rec struct{ W, I int }
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("line %q does not decode: %v", l, err)
		}
		seen[fmt.Sprint(rec.W, rec.I)] = true
	}
	if len(lines) != writers*each || len(seen) != writers*each {
		t.Fatalf("%d lines, %d distinct records; want %d of each", len(lines), len(seen), writers*each)
	}

	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if _, err := Append(ro, 1); err == nil {
		t.Fatal("appending to a read-only file succeeded")
	}
}
