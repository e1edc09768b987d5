// Package checkpoint implements the versioned, length-prefixed, checksummed
// binary snapshot format used to checkpoint and restore full simulator
// state.
//
// A snapshot file is framed as
//
//	magic  u32  "DNCC"
//	version u16
//	payload (tagged sections)
//	crc32  u32  IEEE, over magic+version+payload
//
// The payload is a sequence of nested sections. A section is a
// length-prefixed, tagged byte range: String(tag) U32(len) <len bytes>.
// Encoder and Decoder are this byte layer. End on the decoder verifies the
// section was consumed exactly, so a component that reads too little or too
// much fails loudly at the section boundary instead of silently shifting
// every later field.
//
// Components do not use the byte layer directly. Everything stateful has one
// method, State(*Codec), that names its fields in layout order; a Codec runs
// that walk in the saving direction (over an Encoder) or the loading
// direction (over a Decoder), so a component's snapshot and its restore are
// one description and cannot drift apart. The Codec's helpers carry the
// checks a load makes: Same and Fixed for values the machine's configuration
// fixes (equal or corrupt), Len, Slice, Words, Set and Map for variable
// containers (count checked against the remaining input and the container's
// capacity before anything is allocated), Corrupt for a value the machine
// cannot hold. Codec.Loading marks the few places where the directions
// genuinely differ.
//
// Decoding is defensive: every read is bounds-checked and malformed input
// yields a typed error (ErrTruncated, ErrCorrupt, ErrVersion, ErrChecksum),
// never a panic — the package has a fuzz target to keep it that way.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Format constants.
const (
	// Magic identifies a snapshot file ("DNCC" little-endian).
	Magic uint32 = 0x43434E44
	// Version is the current snapshot format version. Decode refuses
	// other versions: snapshots are short-lived artifacts (resume a killed
	// run), not archival, so no cross-version migration is attempted.
	Version uint16 = 3
)

// Typed decode errors. All decoder failures wrap one of these.
var (
	// ErrTruncated means the input ended before a read completed.
	ErrTruncated = errors.New("checkpoint: truncated input")
	// ErrCorrupt means the input is structurally invalid (bad magic, bad
	// section tag, section length mismatch, impossible field value).
	ErrCorrupt = errors.New("checkpoint: corrupt input")
	// ErrVersion means the snapshot was written by an incompatible format
	// version.
	ErrVersion = errors.New("checkpoint: unsupported version")
	// ErrChecksum means the CRC32 trailer does not match the content.
	ErrChecksum = errors.New("checkpoint: checksum mismatch")
)

// Encoder builds a snapshot: the file header, then the payload as it is
// appended. Methods never fail; the buffer grows as needed. The zero value
// is not usable — use NewEncoder.
type Encoder struct {
	buf      []byte // magic, version, payload so far
	sections []int  // offsets of open sections' length placeholders
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder {
	e := &Encoder{buf: make([]byte, 0, 1<<16)}
	e.Reset()
	return e
}

// Reset empties the encoder for another snapshot, keeping its buffer: a
// machine that snapshots on a cadence grows one buffer once.
func (e *Encoder) Reset() {
	e.buf = binary.LittleEndian.AppendUint32(e.buf[:0], Magic)
	e.buf = binary.LittleEndian.AppendUint16(e.buf, Version)
	e.sections = e.sections[:0]
}

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a little-endian uint16.
func (e *Encoder) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a little-endian int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Bytes appends a u32 length prefix followed by the raw bytes.
func (e *Encoder) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a u32 length prefix followed by the string bytes.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Begin opens a tagged section. Every Begin must be paired with End.
func (e *Encoder) Begin(tag string) {
	e.String(tag)
	e.sections = append(e.sections, len(e.buf))
	e.U32(0) // length placeholder, patched by End
}

// End closes the innermost open section, patching its length prefix.
func (e *Encoder) End() {
	if len(e.sections) == 0 {
		panic("checkpoint: Encoder.End without Begin")
	}
	at := e.sections[len(e.sections)-1]
	e.sections = e.sections[:len(e.sections)-1]
	binary.LittleEndian.PutUint32(e.buf[at:], uint32(len(e.buf)-at-4))
}

// Struct appends a fixed-layout struct (all fields fixed-size) as a
// length-prefixed blob via encoding/binary. Intended for flat counter
// structs like core.Metrics where field-by-field encoding adds nothing but
// maintenance burden. Panics if v is not a fixed-size value — that is a
// programming error, not an input error.
func (e *Encoder) Struct(v any) {
	var b bytes.Buffer
	if err := binary.Write(&b, binary.LittleEndian, v); err != nil {
		panic(fmt.Sprintf("checkpoint: Encoder.Struct(%T): %v", v, err))
	}
	e.Bytes(b.Bytes())
}

// Marshal returns the framed snapshot: header, payload, CRC32 trailer. The
// bytes are the encoder's own buffer, not a copy — they are valid until the
// encoder is next written to or Reset.
func (e *Encoder) Marshal() []byte {
	if len(e.sections) != 0 {
		panic("checkpoint: Marshal with unclosed section")
	}
	framed := binary.LittleEndian.AppendUint32(e.buf, crc32.ChecksumIEEE(e.buf))
	e.buf = framed[:len(e.buf)] // keep the grown array; the trailer is not payload
	return framed
}

// Decoder reads a snapshot payload. Errors are sticky: after the first
// failure every read returns the zero value and Err reports the failure, so
// restore code can decode a whole section and check once.
type Decoder struct {
	buf      []byte
	off      int
	sections []int // end offsets of open sections
	err      error
}

// Decode validates the framing (magic, version, checksum) of a marshalled
// snapshot and returns a decoder positioned at the start of the payload.
func Decode(data []byte) (*Decoder, error) {
	if len(data) < 10 { // magic + version + crc
		return nil, fmt.Errorf("%w: %d bytes is smaller than the file framing", ErrTruncated, len(data))
	}
	if m := binary.LittleEndian.Uint32(data); m != Magic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, m)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != Version {
		return nil, fmt.Errorf("%w: snapshot version %d, this build reads version %d", ErrVersion, v, Version)
	}
	body, trailer := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if sum := crc32.ChecksumIEEE(body); sum != trailer {
		return nil, fmt.Errorf("%w: computed %#x, stored %#x", ErrChecksum, sum, trailer)
	}
	return &Decoder{buf: body[6:]}, nil
}

// Err returns the first decode failure, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes in the current section (or
// the whole payload if no section is open).
func (d *Decoder) Remaining() int { return d.limit() - d.off }

func (d *Decoder) limit() int {
	if len(d.sections) > 0 {
		return d.sections[len(d.sections)-1]
	}
	return len(d.buf)
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > d.limit() {
		d.fail(fmt.Errorf("%w: need %d bytes, %d remain", ErrTruncated, n, d.limit()-d.off))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int written by Encoder.Int.
func (d *Decoder) Int() int { return int(d.I64()) }

// Bool reads a boolean. Any byte other than 0 or 1 is corrupt.
func (d *Decoder) Bool() bool {
	switch v := d.U8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("%w: boolean byte %#x", ErrCorrupt, v))
		return false
	}
}

// Bytes reads a u32 length-prefixed byte slice. The length is validated
// against the remaining input before any allocation, so a corrupt length
// cannot force a huge allocation.
func (d *Decoder) Bytes() []byte {
	n := int(d.U32())
	if d.err != nil {
		return nil
	}
	if n > d.Remaining() {
		d.fail(fmt.Errorf("%w: byte slice of %d bytes, %d remain", ErrTruncated, n, d.Remaining()))
		return nil
	}
	return append([]byte(nil), d.take(n)...)
}

// String reads a u32 length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// Count reads an element count written as Int and validates it against the
// remaining input assuming each element occupies at least elemMin bytes.
// Codec.Len loads through it so a corrupt count cannot drive an unbounded
// allocation or loop.
func (d *Decoder) Count(elemMin int) int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if n < 0 || (elemMin > 0 && n > d.Remaining()/elemMin) {
		d.fail(fmt.Errorf("%w: element count %d exceeds remaining input", ErrCorrupt, n))
		return 0
	}
	return n
}

// Begin opens a section and verifies its tag. The section's length must fit
// inside the enclosing section.
func (d *Decoder) Begin(tag string) error {
	got := d.String()
	if d.err != nil {
		return d.err
	}
	if got != tag {
		d.fail(fmt.Errorf("%w: section tag %q, want %q", ErrCorrupt, got, tag))
		return d.err
	}
	n := int(d.U32())
	if d.err != nil {
		return d.err
	}
	if n > d.Remaining() {
		d.fail(fmt.Errorf("%w: section %q of %d bytes, %d remain", ErrTruncated, tag, n, d.Remaining()))
		return d.err
	}
	d.sections = append(d.sections, d.off+n)
	return nil
}

// End closes the innermost section, verifying it was consumed exactly.
func (d *Decoder) End() error {
	if d.err != nil {
		return d.err
	}
	if len(d.sections) == 0 {
		d.fail(fmt.Errorf("%w: Decoder.End without Begin", ErrCorrupt))
		return d.err
	}
	end := d.sections[len(d.sections)-1]
	d.sections = d.sections[:len(d.sections)-1]
	if d.off != end {
		d.fail(fmt.Errorf("%w: section consumed %d bytes short of its length", ErrCorrupt, end-d.off))
		return d.err
	}
	return nil
}

// Struct reads a fixed-layout struct written by Encoder.Struct into v
// (a pointer). A size mismatch — e.g. the struct gained a field since the
// snapshot was written — is corrupt, not silently misaligned.
func (d *Decoder) Struct(v any) error {
	b := d.Bytes()
	if d.err != nil {
		return d.err
	}
	want := binary.Size(v)
	if want < 0 {
		d.fail(fmt.Errorf("%w: Decoder.Struct(%T) is not fixed-size", ErrCorrupt, v))
		return d.err
	}
	if len(b) != want {
		d.fail(fmt.Errorf("%w: struct blob for %T is %d bytes, want %d", ErrCorrupt, v, len(b), want))
		return d.err
	}
	if err := binary.Read(bytes.NewReader(b), binary.LittleEndian, v); err != nil {
		d.fail(fmt.Errorf("%w: decoding %T: %v", ErrCorrupt, v, err))
	}
	return d.err
}

// WriteFile atomically writes the marshalled snapshot to path: the bytes go
// to a temp file in the same directory, are fsynced, then renamed over the
// destination, so a crash mid-write never leaves a partial snapshot under
// the final name.
func WriteFile(path string, e *Encoder) error {
	data := e.Marshal()
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: closing %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: renaming snapshot into place: %w", err)
	}
	return nil
}

// ReadFile reads and validates a snapshot file.
func ReadFile(path string) (*Decoder, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading %s: %w", path, err)
	}
	d, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}
