package checkpoint

import (
	"encoding/binary"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the snapshot decoder: framing and
// section parsing must return typed errors, never panic or over-allocate,
// on any input (`go test -fuzz FuzzDecode ./internal/checkpoint`). In a
// plain `go test` run only the seed corpus executes.
func FuzzDecode(f *testing.F) {
	// Seeds: a valid nested snapshot plus a spread of malformed framings.
	e := NewEncoder()
	e.Begin("machine")
	e.U64(123456)
	e.Begin("core")
	e.Int(3)
	e.U64(1)
	e.U64(2)
	e.U64(3)
	e.String("tag")
	e.Bool(true)
	e.Bytes([]byte{9, 8, 7})
	e.End()
	e.End()
	valid := e.Marshal()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("DNCC"))
	header := binary.LittleEndian.AppendUint16([]byte("DNCC"), Version)
	f.Add(header)
	f.Add(append(header, 0, 0, 0, 0))
	f.Add([]byte("DNCC\xff\x00\x00\x00\x00\x00"))
	f.Add(valid[:len(valid)-5])
	corrupt := append([]byte(nil), valid...)
	corrupt[8] ^= 0xFF
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(data)
		if err != nil {
			return
		}
		// Walk the input as if restoring: open a section, drain typed reads.
		// Every operation must either succeed within bounds or set a sticky
		// error — the loop is bounded because each iteration consumes at
		// least one byte or errors out.
		if err := d.Begin("machine"); err != nil {
			return
		}
		_ = d.U64()
		if err := d.Begin("core"); err != nil {
			return
		}
		n := d.Count(8)
		for i := 0; i < n; i++ {
			_ = d.U64()
		}
		_ = d.String()
		_ = d.Bool()
		_ = d.Bytes()
		if err := d.End(); err != nil {
			return
		}
		if err := d.End(); err != nil {
			return
		}
		if d.Remaining() < 0 {
			t.Fatalf("decoder ran past its input: %d bytes remaining", d.Remaining())
		}
	})
}
