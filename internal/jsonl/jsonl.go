// Package jsonl holds the crash discipline shared by the append-only JSONL
// files (the runner journal, and dncserved's result cache, dead-letter
// ledger and job log): a record is one fsynced line, a process killed
// mid-append leaves at most a torn last line, and the next process skips it
// and starts on a fresh one.
package jsonl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// OpenAppend passes every non-empty line of the file at path (if it exists)
// to each, then opens it for appending, creating it if absent. The slice
// handed to each is valid only during the call. Which lines are records is
// the caller's business: a torn or foreign line is one it fails to decode
// and skips.
func OpenAppend(path string, each func(line []byte)) (*os.File, error) {
	if f, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
		for sc.Scan() {
			if line := sc.Bytes(); len(line) > 0 {
				each(line)
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	// An empty file may be new, and its directory entry must be durable
	// before a line fsynced into it can be. A process killed mid-write
	// leaves a partial line with no trailing newline; appending straight
	// onto it would corrupt the next record too. Start appends on a fresh
	// line.
	fi, err := f.Stat()
	if err == nil && fi.Size() == 0 {
		err = syncDir(filepath.Dir(path))
	} else if err == nil {
		var last [1]byte
		if _, err = f.ReadAt(last[:], fi.Size()-1); err == nil && last[0] != '\n' {
			_, err = f.Write([]byte("\n"))
		}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("opening %s: %w", path, err)
	}
	return f, nil
}

// Append writes v as one JSON line to f, opened by OpenAppend, and fsyncs
// it, so the record survives a kill or a power loss once Append returns
// nil. n counts the bytes written, the newline included. The line goes out
// in one write, so appends to one file from several goroutines never
// interleave.
func Append(f *os.File, v any) (n int, err error) {
	line, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	if n, err = f.Write(append(line, '\n')); err != nil {
		return n, err
	}
	return n, f.Sync()
}

// syncDir fsyncs a directory, making the entries created in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // only read
	return d.Sync()
}
