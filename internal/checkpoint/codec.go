package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Codec walks a component's state in one of two directions: saving appends
// each field to a byte buffer (Save), loading overwrites each field from a
// snapshot's payload (Load). A component describes its layout once, in a
// State(*Codec) method that names every field in order; the same walk is its
// snapshot and its restore, so the two cannot drift apart.
//
// Load errors are sticky, first one wins. After a failure every read leaves
// zeros behind and consumes nothing, so a State method never checks an
// error to stay safe — only to skip work, or before it uses a loaded value
// as an index. Saving cannot fail.
type Codec struct {
	buf      []byte // saving: the snapshot so far; loading: the payload
	off      int    // loading: read offset into buf
	sections []int  // saving: open sections' length offsets; loading: their end offsets
	loading  bool
	err      error
}

// Loading reports the direction. State methods branch on it only where the
// two directions genuinely differ: emptying a container before it is
// refilled, rebuilding what is derived from the loaded fields, checking a
// loaded value's range.
func (c *Codec) Loading() bool { return c.loading }

// Err returns the first failure of a load; nil while saving.
func (c *Codec) Err() error { return c.err }

// fail records err as the load's failure unless one is recorded already.
func (c *Codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Corrupt fails the load with a formatted error wrapping ErrCorrupt: the
// snapshot decoded, but holds a value this machine cannot.
func (c *Codec) Corrupt(format string, args ...any) {
	if c.loading && c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// remaining returns the number of unread bytes in the current section (or
// the whole payload if no section is open).
func (c *Codec) remaining() int {
	end := len(c.buf)
	if len(c.sections) > 0 {
		end = c.sections[len(c.sections)-1]
	}
	return end - c.off
}

// take consumes the next n bytes of the payload, or fails the load and
// returns nil.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > c.remaining() {
		c.fail(fmt.Errorf("%w: need %d bytes, %d remain", ErrTruncated, n, c.remaining()))
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// U8 walks one byte.
func (c *Codec) U8(p *uint8) {
	if !c.loading {
		c.buf = append(c.buf, *p)
	} else if b := c.take(1); b != nil {
		*p = b[0]
	} else {
		*p = 0
	}
}

// U16 walks a little-endian uint16.
func (c *Codec) U16(p *uint16) {
	if !c.loading {
		c.buf = binary.LittleEndian.AppendUint16(c.buf, *p)
	} else if b := c.take(2); b != nil {
		*p = binary.LittleEndian.Uint16(b)
	} else {
		*p = 0
	}
}

// U32 walks a little-endian uint32.
func (c *Codec) U32(p *uint32) {
	if !c.loading {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *p)
	} else if b := c.take(4); b != nil {
		*p = binary.LittleEndian.Uint32(b)
	} else {
		*p = 0
	}
}

// U64 walks a little-endian uint64.
func (c *Codec) U64(p *uint64) {
	if !c.loading {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *p)
	} else if b := c.take(8); b != nil {
		*p = binary.LittleEndian.Uint64(b)
	} else {
		*p = 0
	}
}

// I64 walks an int64 (two's complement).
func (c *Codec) I64(p *int64) {
	v := uint64(*p)
	c.U64(&v)
	*p = int64(v)
}

// Int walks an int (as an int64).
func (c *Codec) Int(p *int) {
	v := int64(*p)
	c.I64(&v)
	*p = int(v)
}

// Bool walks a boolean as one byte; a loaded byte other than 0 or 1 is
// corrupt.
func (c *Codec) Bool(p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	c.U8(&v)
	if v > 1 {
		c.fail(fmt.Errorf("%w: boolean byte %#x", ErrCorrupt, v))
	}
	*p = v == 1
}

// span walks the u32 length prefix of n bytes. Saving, it appends n and
// returns nil (the caller appends the bytes). Loading, it reads the length,
// checks it against the remaining input before anything is allocated, and
// returns the bytes — the payload's own, not a copy.
func (c *Codec) span(n int) []byte {
	v := uint32(n)
	c.U32(&v)
	if !c.loading || c.err != nil {
		return nil
	}
	if int(v) > c.remaining() {
		c.fail(fmt.Errorf("%w: byte slice of %d bytes, %d remain", ErrTruncated, v, c.remaining()))
		return nil
	}
	return c.take(int(v))
}

// String walks a length-prefixed string.
func (c *Codec) String(p *string) {
	b := c.span(len(*p))
	if c.loading {
		*p = string(b)
	} else {
		c.buf = append(c.buf, *p...)
	}
}

// Struct walks a fixed-layout struct (all fields fixed-size) through p, a
// pointer to it, as a length-prefixed blob via encoding/binary. Intended for
// flat counter structs where field-by-field walking adds nothing but
// maintenance burden. Saving panics if p is not a fixed-size value — that is
// a programming error, not an input error. Loading, a size mismatch — the
// struct gained a field since the snapshot was written — is corrupt, not
// silently misaligned.
func (c *Codec) Struct(p any) {
	want := binary.Size(p)
	b := c.span(want)
	if !c.loading {
		var err error
		if c.buf, err = binary.Append(c.buf, binary.LittleEndian, p); err != nil {
			panic(fmt.Sprintf("checkpoint: Struct(%T): %v", p, err))
		}
		return
	}
	switch {
	case c.err != nil:
	case want < 0:
		c.fail(fmt.Errorf("%w: Struct(%T) is not fixed-size", ErrCorrupt, p))
	case len(b) != want:
		c.fail(fmt.Errorf("%w: struct blob for %T is %d bytes, want %d", ErrCorrupt, p, len(b), want))
	default:
		if _, err := binary.Decode(b, binary.LittleEndian, p); err != nil {
			c.fail(fmt.Errorf("%w: decoding %T: %v", ErrCorrupt, p, err))
		}
	}
}

// Byte walks a one-byte field of a named type (isa.Kind, a signed counter).
func Byte[T ~uint8 | ~int8](c *Codec, p *T) {
	v := uint8(*p)
	c.U8(&v)
	*p = T(v)
}

// Word32 walks a four-byte field of a named or signed type.
func Word32[T ~uint32 | ~int32](c *Codec, p *T) {
	v := uint32(*p)
	c.U32(&v)
	*p = T(v)
}

// Word walks an eight-byte field of a named type (isa.BlockID, isa.Addr).
func Word[T ~uint64](c *Codec, p *T) {
	v := uint64(*p)
	c.U64(&v)
	*p = T(v)
}

// Begin opens the section tagged tag; every Begin is paired with an End.
// Loading, the tag must match and the section's length fit inside the
// enclosing section.
func (c *Codec) Begin(tag string) {
	got := c.span(len(tag))
	if !c.loading {
		c.buf = append(c.buf, tag...)
		c.sections = append(c.sections, len(c.buf))
		c.buf = append(c.buf, 0, 0, 0, 0) // length, patched by End
		return
	}
	if c.err == nil && string(got) != tag {
		c.fail(fmt.Errorf("%w: section tag %q, want %q", ErrCorrupt, got, tag))
	}
	var n uint32
	c.U32(&n)
	if c.err != nil {
		return
	}
	if int(n) > c.remaining() {
		c.fail(fmt.Errorf("%w: section %q of %d bytes, %d remain", ErrTruncated, tag, n, c.remaining()))
		return
	}
	c.sections = append(c.sections, c.off+int(n))
}

// End closes the innermost section. Saving, it patches the section's length
// prefix; loading, it fails unless the walk consumed the section exactly.
func (c *Codec) End() {
	if c.err != nil {
		return
	}
	if len(c.sections) == 0 {
		if !c.loading {
			panic("checkpoint: End without Begin")
		}
		c.fail(fmt.Errorf("%w: End without Begin", ErrCorrupt))
		return
	}
	at := c.sections[len(c.sections)-1]
	c.sections = c.sections[:len(c.sections)-1]
	if !c.loading {
		binary.LittleEndian.PutUint32(c.buf[at:], uint32(len(c.buf)-at-4))
	} else if c.off != at {
		c.fail(fmt.Errorf("%w: section consumed %d bytes short of its length", ErrCorrupt, at-c.off))
	}
}

// Same walks a value the machine's configuration fixes — a table size, the
// presence of an optional structure, a seed, a name: saved as it is, and
// loaded only to be compared, since snapshots restore into identically
// configured machines and never reconfigure one. A snapshot that disagrees
// is corrupt. walk is the codec method for the value's type (c.Int,
// c.Bool, ...). Same returns have.
func Same[T comparable](c *Codec, what string, have T, walk func(*T)) T {
	v := have
	walk(&v)
	if v != have {
		c.Corrupt("snapshot %s is %v, machine has %v", what, v, have)
	}
	return have
}

// Fixed is Same for an int, a size or capacity the configuration fixes —
// the common case, spelled out so that it allocates nothing.
func (c *Codec) Fixed(what string, have int) {
	v := have
	c.Int(&v)
	if v != have {
		c.Corrupt("snapshot %s is %d, machine has %d", what, v, have)
	}
}

// Blob walks a byte table whose size the configuration fixes.
func (c *Codec) Blob(what string, b []byte) {
	n := uint32(len(b))
	c.U32(&n)
	if !c.loading {
		c.buf = append(c.buf, b...)
		return
	}
	if c.err == nil && int(n) != len(b) {
		c.Corrupt("snapshot %s holds %d bytes, machine has %d", what, n, len(b))
	}
	copy(b, c.take(len(b)))
}

// Unbounded is the Len, Slice, Set and Map capacity of a container nothing
// but the input's length bounds.
const Unbounded = math.MaxInt

// Len walks the length of a variable-size container and returns the number
// of elements to walk. Saving, that is n. Loading, a count the rest of the
// section could not hold at elemMin bytes an element is corrupt before
// anything is allocated or looped over, and so is one above max, the
// container's capacity.
func (c *Codec) Len(what string, n, elemMin, max int) int {
	c.Int(&n)
	if !c.loading || c.err != nil {
		return n
	}
	if n < 0 || (elemMin > 0 && n > c.remaining()/elemMin) {
		c.fail(fmt.Errorf("%w: element count %d exceeds remaining input", ErrCorrupt, n))
		return 0
	}
	if n > max {
		c.Corrupt("%s holds %d entries over capacity %d", what, n, max)
		return 0
	}
	return n
}

// Slice walks a variable-length slice: its length (see Len), then each
// element through elem. Loading resizes *s in place, keeping its backing
// array when that is large enough, and hands elem zeroed elements.
func Slice[T any](c *Codec, what string, s *[]T, elemMin, max int, elem func(*T)) {
	n := c.Len(what, len(*s), elemMin, max)
	if c.Loading() {
		*s = slices.Grow((*s)[:0], n)[:n]
		clear(*s)
	}
	for i := range *s {
		elem(&(*s)[i])
	}
}

// Words walks a variable-length slice of blocks or addresses.
func Words[T ~uint64](c *Codec, what string, s *[]T, max int) {
	Slice(c, what, s, 8, max, func(p *T) { Word(c, p) })
}

// Map walks a container keyed by block or address in ascending key order,
// whatever order the container iterates in, so equal states save equal
// bytes. keys are the container's keys in any order (sorted in place).
// Saving writes each key and calls entry to walk its value. Loading calls
// reset to empty the container, then reads each key and calls entry to walk
// the value and insert the pair.
func Map[K ~uint64](c *Codec, what string, keys []K, elemMin, max int, reset func(), entry func(k K)) {
	n := c.Len(what, len(keys), elemMin, max)
	if !c.Loading() {
		slices.Sort(keys)
		for _, k := range keys {
			Word(c, &k)
			entry(k)
		}
		return
	}
	reset()
	for i := 0; i < n && c.Err() == nil; i++ {
		var k K
		Word(c, &k)
		entry(k)
	}
}

// Keys returns a Go map's keys, in no particular order, for Map.
func Keys[K ~uint64, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// Set walks a Go map used as a set of blocks or addresses (see Map).
func Set[K ~uint64](c *Codec, what string, m map[K]struct{}, max int) {
	Map(c, what, Keys(m), 8, max, func() { clear(m) }, func(k K) { m[k] = struct{}{} })
}
