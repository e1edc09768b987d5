package checkpoint

import (
	"fmt"
	"math"
	"slices"
)

// Codec walks a component's state in one of two directions: saving appends
// each field to an Encoder, loading overwrites each field from a Decoder. A
// component describes its layout once, in a State(*Codec) method that names
// every field in order; the same walk is its snapshot and its restore, so
// the two cannot drift apart.
//
// Errors are the Decoder's: sticky, first one wins. After a failure every
// read leaves zeros behind and consumes nothing, so a State method never
// checks an error to stay safe — only to skip work, or before it uses a
// loaded value as an index. Saving cannot fail.
type Codec struct {
	e *Encoder // saving
	d *Decoder // loading
}

// NewSaver returns a codec that saves into e.
func NewSaver(e *Encoder) *Codec { return &Codec{e: e} }

// NewLoader returns a codec that loads from d.
func NewLoader(d *Decoder) *Codec { return &Codec{d: d} }

// Loading reports the direction. State methods branch on it only where the
// two directions genuinely differ: emptying a container before it is
// refilled, rebuilding what is derived from the loaded fields, checking a
// loaded value's range.
func (c *Codec) Loading() bool { return c.d != nil }

// Err returns the first failure of a load; nil while saving.
func (c *Codec) Err() error {
	if c.d == nil {
		return nil
	}
	return c.d.err
}

// Fail records err as the load's failure unless one is recorded already.
func (c *Codec) Fail(err error) {
	if c.d != nil {
		c.d.fail(err)
	}
}

// Corrupt fails the load with a formatted error wrapping ErrCorrupt: the
// snapshot decoded, but holds a value this machine cannot.
func (c *Codec) Corrupt(format string, args ...any) {
	if c.d != nil && c.d.err == nil {
		c.d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// U8 walks one byte.
func (c *Codec) U8(p *uint8) {
	if c.d != nil {
		*p = c.d.U8()
	} else {
		c.e.U8(*p)
	}
}

// U16 walks a uint16.
func (c *Codec) U16(p *uint16) {
	if c.d != nil {
		*p = c.d.U16()
	} else {
		c.e.U16(*p)
	}
}

// U32 walks a uint32.
func (c *Codec) U32(p *uint32) {
	if c.d != nil {
		*p = c.d.U32()
	} else {
		c.e.U32(*p)
	}
}

// U64 walks a uint64.
func (c *Codec) U64(p *uint64) {
	if c.d != nil {
		*p = c.d.U64()
	} else {
		c.e.U64(*p)
	}
}

// I64 walks an int64.
func (c *Codec) I64(p *int64) {
	if c.d != nil {
		*p = c.d.I64()
	} else {
		c.e.I64(*p)
	}
}

// Int walks an int (as an int64).
func (c *Codec) Int(p *int) {
	if c.d != nil {
		*p = c.d.Int()
	} else {
		c.e.Int(*p)
	}
}

// Bool walks a boolean; a loaded byte other than 0 or 1 is corrupt.
func (c *Codec) Bool(p *bool) {
	if c.d != nil {
		*p = c.d.Bool()
	} else {
		c.e.Bool(*p)
	}
}

// String walks a length-prefixed string.
func (c *Codec) String(p *string) {
	if c.d != nil {
		*p = c.d.String()
	} else {
		c.e.String(*p)
	}
}

// Struct walks a fixed-layout struct through p, a pointer to it (see
// Encoder.Struct).
func (c *Codec) Struct(p any) {
	if c.d != nil {
		c.d.Struct(p)
	} else {
		c.e.Struct(p)
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
func (c *Codec) Begin(tag string) {
	if c.d != nil {
		c.d.Begin(tag)
	} else {
		c.e.Begin(tag)
	}
}

// End closes the innermost section. Loading, it fails unless the walk
// consumed the section exactly.
func (c *Codec) End() {
	if c.d != nil {
		c.d.End()
	} else {
		c.e.End()
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
	if c.Loading() && c.Err() == nil && v != have {
		c.Corrupt("snapshot %s is %v, machine has %v", what, v, have)
	}
	return have
}

// Fixed is Same for an int, a size or capacity the configuration fixes —
// the common case, spelled out so that it allocates nothing.
func (c *Codec) Fixed(what string, have int) {
	v := have
	c.Int(&v)
	if c.Loading() && c.Err() == nil && v != have {
		c.Corrupt("snapshot %s is %d, machine has %d", what, v, have)
	}
}

// Blob walks a byte table whose size the configuration fixes.
func (c *Codec) Blob(what string, b []byte) {
	if c.d == nil {
		c.e.Bytes(b)
		return
	}
	if n := int(c.d.U32()); c.d.err == nil && n != len(b) {
		c.Corrupt("snapshot %s holds %d bytes, machine has %d", what, n, len(b))
	}
	copy(b, c.d.take(len(b)))
}

// Unbounded is the Len, Slice, Set and Map capacity of a container nothing
// but the input's length bounds.
const Unbounded = math.MaxInt

// Len walks the length of a variable-size container and returns the number
// of elements to walk. Saving, that is n. Loading, it is read with
// Decoder.Count — a count the rest of the section could not hold at elemMin
// bytes an element is corrupt before anything is allocated or looped over —
// and refused above max, the container's capacity.
func (c *Codec) Len(what string, n, elemMin, max int) int {
	if c.d == nil {
		c.e.Int(n)
		return n
	}
	n = c.d.Count(elemMin)
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
