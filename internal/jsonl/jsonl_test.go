package jsonl

import (
	"os"
	"path/filepath"
	"strings"
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

// TestOpenAppendTornTail is the discipline the journal, the result cache and
// the dead-letter ledger share: a missing file is an empty one, a torn last
// line is handed over like any other (the caller fails to decode it) and
// never glued to the next append, and blank lines are not records.
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

// TestOpenAppendLongLine holds the line limit where the three files need it:
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
