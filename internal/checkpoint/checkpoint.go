// Package checkpoint implements the versioned, length-prefixed, checksummed
// binary snapshot format used to checkpoint and restore full simulator
// state.
//
// A snapshot is framed as
//
//	magic  u32  "DNCC"
//	version u16
//	payload (tagged sections)
//	crc32  u32  IEEE, over magic+version+payload
//
// The payload is a sequence of nested sections. A section is a
// length-prefixed, tagged byte range: String(tag) U32(len) <len bytes>.
// Loading, End verifies the section was consumed exactly, so a component
// that reads too little or too much fails loudly at the section boundary
// instead of silently shifting every later field.
//
// Everything stateful has one method, State(*Codec), that names its fields
// in layout order. Save runs that walk in the saving direction, appending
// each field to a byte buffer; Load runs it in the loading direction,
// overwriting each field from the snapshot. A component's snapshot and its
// restore are one description and cannot drift apart. The Codec's helpers
// carry the checks a load makes: Same and Fixed for values the machine's
// configuration fixes (equal or corrupt), Len, Slice, Words, Set and Map for
// variable containers (count checked against the remaining input and the
// container's capacity before anything is allocated), Corrupt for a value
// the machine cannot hold. Codec.Loading marks the few places where the
// directions genuinely differ.
//
// Loading is defensive: every read is bounds-checked and malformed input
// yields a typed error (ErrTruncated, ErrCorrupt, ErrVersion, ErrChecksum),
// never a panic — the package has a fuzz target to keep it that way.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Format constants.
const (
	// Magic identifies a snapshot ("DNCC" little-endian).
	Magic uint32 = 0x43434E44
	// Version is the current snapshot format version. Load refuses other
	// versions: snapshots are short-lived artifacts (resume a killed run),
	// not archival, so no cross-version migration is attempted.
	Version uint16 = 3
)

// Typed load errors. Every load failure wraps one of these.
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

// Save walks state in the saving direction and returns the framed snapshot:
// header, payload, CRC32 trailer, appended to buf[:0]. A caller that
// snapshots on a cadence passes the previous snapshot back in and grows one
// buffer once.
func Save(buf []byte, state func(*Codec)) []byte {
	c := &Codec{buf: binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint32(buf[:0], Magic), Version)}
	state(c)
	if len(c.sections) != 0 {
		panic("checkpoint: Save with unclosed section")
	}
	return binary.LittleEndian.AppendUint32(c.buf, crc32.ChecksumIEEE(c.buf))
}

// Load validates the framing of a snapshot (magic, version, checksum), walks
// state in the loading direction over its payload and returns the first
// error, the framing's or the walk's.
func Load(data []byte, state func(*Codec)) error {
	if len(data) < 10 { // magic + version + crc
		return fmt.Errorf("%w: %d bytes is smaller than the file framing", ErrTruncated, len(data))
	}
	if m := binary.LittleEndian.Uint32(data); m != Magic {
		return fmt.Errorf("%w: bad magic %#x", ErrCorrupt, m)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != Version {
		return fmt.Errorf("%w: snapshot version %d, this build reads version %d", ErrVersion, v, Version)
	}
	body, trailer := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if sum := crc32.ChecksumIEEE(body); sum != trailer {
		return fmt.Errorf("%w: computed %#x, stored %#x", ErrChecksum, sum, trailer)
	}
	c := &Codec{buf: body[6:], loading: true}
	state(c)
	return c.err
}

// WriteFile atomically writes a snapshot to path: the bytes go to a temp
// file in the same directory, are fsynced, then renamed over the
// destination, so a crash mid-write never leaves a partial snapshot under
// the final name.
func WriteFile(path string, data []byte) error {
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
