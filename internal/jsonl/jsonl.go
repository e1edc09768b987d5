// Package jsonl holds the crash discipline shared by the append-only JSONL
// files (the runner journal, the dncserved result cache and dead-letter
// ledger): a record is one line, a process killed mid-append leaves at most
// a torn last line, and the next process skips it and starts on a fresh one.
package jsonl

import (
	"bufio"
	"fmt"
	"os"
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
	// A process killed mid-write leaves a partial line with no trailing
	// newline; appending straight onto it would corrupt the next record
	// too. Start appends on a fresh line.
	if fi, err := f.Stat(); err == nil && fi.Size() > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], fi.Size()-1); err == nil && last[0] != '\n' {
			f.Write([]byte("\n"))
		}
	}
	return f, nil
}
