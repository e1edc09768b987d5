package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// fuzzState is a machine in miniature: nested sections around a counted
// list, a string, a boolean and a fixed-size table.
type fuzzState struct {
	clock uint64
	stack []uint64
	name  string
	on    bool
	table [3]byte
}

func (s *fuzzState) State(c *Codec) {
	c.Begin("machine")
	c.U64(&s.clock)
	c.Begin("core")
	Words(c, "stack", &s.stack, Unbounded)
	c.String(&s.name)
	c.Bool(&s.on)
	c.Blob("table", s.table[:])
	c.End()
	c.End()
}

// FuzzLoad throws arbitrary bytes at Load over a fuzzState walk: framing and
// section parsing must return typed errors, never panic or over-allocate,
// on any input (`go test -fuzz FuzzLoad ./internal/checkpoint`). A load that
// succeeds saves back to the input it read. In a plain `go test` run only
// the seed corpus executes.
func FuzzLoad(f *testing.F) {
	// Seeds: a valid snapshot plus a spread of malformed framings.
	valid := Save(nil, (&fuzzState{clock: 123456, stack: []uint64{1, 2, 3}, name: "tag", on: true,
		table: [3]byte{9, 8, 7}}).State)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("DNCC"))
	header := binary.LittleEndian.AppendUint16([]byte("DNCC"), Version)
	f.Add(header)
	f.Add(append(header, 0, 0, 0, 0))
	f.Add([]byte("DNCC\xff\x00\x00\x00\x00\x00"))
	f.Add(valid[:len(valid)-5])
	corrupt := bytes.Clone(valid)
	corrupt[8] ^= 0xFF
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		var s fuzzState
		err := Load(data, s.State)
		if err != nil {
			for _, typed := range []error{ErrTruncated, ErrCorrupt, ErrVersion, ErrChecksum} {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("untyped load error: %v", err)
		}
		// Load does not require the walk to consume the whole payload, so
		// the saved payload is a prefix of the input's.
		again := Save(nil, s.State)
		if !bytes.HasPrefix(data[:len(data)-4], again[:len(again)-4]) {
			t.Fatalf("loaded %+v from %x; it saves as %x", s, data, again)
		}
	})
}
