package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// prims walks one field of every primitive kind, inside nested sections.
type prims struct {
	u8    uint8
	u16   uint16
	u32   uint32
	u64   uint64
	i64   int64
	n     int
	t, f  bool
	blob  [3]byte
	s     string
	inner uint64
}

func (p *prims) State(c *Codec) {
	c.Begin("outer")
	c.U8(&p.u8)
	c.U16(&p.u16)
	c.U32(&p.u32)
	c.U64(&p.u64)
	c.I64(&p.i64)
	c.Int(&p.n)
	c.Bool(&p.t)
	c.Bool(&p.f)
	c.Blob("blob", p.blob[:])
	c.String(&p.s)
	c.Begin("inner")
	c.U64(&p.inner)
	c.End()
	c.End()
}

func TestRoundTrip(t *testing.T) {
	in := prims{u8: 0xAB, u16: 0xBEEF, u32: 0xDEADBEEF, u64: 1 << 60, i64: -17, n: 42,
		t: true, blob: [3]byte{1, 2, 3}, s: "hello", inner: 7}
	snap := Save(nil, in.State)
	var out prims
	if err := Load(snap, out.State); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if out != in {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
	if again := Save(nil, out.State); !bytes.Equal(again, snap) {
		t.Fatal("save → load → save changed the bytes")
	}

	// The layout, byte for byte: header, a tagged and length-prefixed
	// section, the CRC trailer over everything before it.
	one := Save(nil, func(c *Codec) {
		c.Begin("s")
		v := uint8(9)
		c.U8(&v)
		c.End()
	})
	want := []byte{'D', 'N', 'C', 'C', byte(Version), 0, 1, 0, 0, 0, 's', 1, 0, 0, 0, 9}
	want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(want))
	if !bytes.Equal(one, want) {
		t.Fatalf("snapshot bytes = %x, want %x", one, want)
	}
}

type flat struct {
	A uint64
	B int32
	C [2]uint8
}

func TestStructRoundTrip(t *testing.T) {
	in := flat{A: 9, B: -3, C: [2]uint8{7, 8}}
	snap := Save(nil, func(c *Codec) { c.Struct(&in) })
	var out flat
	if err := Load(snap, func(c *Codec) { c.Struct(&out) }); err != nil {
		t.Fatalf("Struct: %v", err)
	}
	if out != in {
		t.Errorf("Struct round-trip = %+v, want %+v", out, in)
	}

	// A struct that gained a field since the snapshot was written.
	var grown struct {
		flat
		D uint16
	}
	if err := Load(snap, func(c *Codec) { c.Struct(&grown) }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("struct of another size: err = %v, want ErrCorrupt", err)
	}
}

func TestFramingErrors(t *testing.T) {
	v := uint64(1234)
	walk := func(c *Codec) { c.U64(&v) }
	good := Save(nil, walk)
	if err := Load(good, walk); err != nil || v != 1234 {
		t.Fatalf("good snapshot: %d, %v", v, err)
	}

	none := func(*Codec) {}
	if err := Load(good[:5], none); !errors.Is(err, ErrTruncated) {
		t.Errorf("short input: err = %v, want ErrTruncated", err)
	}
	bad := bytes.Clone(good)
	bad[0] ^= 0xFF
	if err := Load(bad, none); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: err = %v, want ErrCorrupt", err)
	}
	bad = bytes.Clone(good)
	bad[4] = 0xFF // version
	if err := Load(bad, none); !errors.Is(err, ErrVersion) {
		t.Errorf("bad version: err = %v, want ErrVersion", err)
	}
	bad = bytes.Clone(good)
	bad[7] ^= 0x01 // payload byte
	if err := Load(bad, none); !errors.Is(err, ErrChecksum) {
		t.Errorf("flipped payload bit: err = %v, want ErrChecksum", err)
	}
}

// TestDecoderSticky: after the first failure every read leaves zeros and
// consumes nothing, and the first error is the one reported.
func TestDecoderSticky(t *testing.T) {
	snap := Save(nil, func(c *Codec) {
		for _, b := range []uint8{1, 2, 1} {
			c.U8(&b)
		}
	})
	err := Load(snap, func(c *Codec) {
		var b uint8
		c.U8(&b)
		on := true
		c.Bool(&on) // byte 2 is no boolean
		if !errors.Is(c.Err(), ErrCorrupt) || on {
			t.Errorf("boolean byte 2: %v, %v; want false, ErrCorrupt", on, c.Err())
		}
		off := c.off
		after := prims{u8: 1, u16: 2, u32: 3, u64: 4, i64: 5, n: 6, t: true, s: "x"}
		c.U8(&after.u8) // byte 1, but the load has failed
		c.U16(&after.u16)
		c.U32(&after.u32)
		c.U64(&after.u64)
		c.I64(&after.i64)
		c.Int(&after.n)
		c.Bool(&after.t)
		c.String(&after.s)
		if after != (prims{}) || c.off != off {
			t.Errorf("reads after a failure: %+v, offset %d → %d; want zeros, nothing consumed",
				after, off, c.off)
		}
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("Load = %v, want the first failure, ErrCorrupt", err)
	}

	err = Load(snap, func(c *Codec) {
		var u64 uint64 = 5
		c.U64(&u64) // truncated: only 3 bytes of payload
		if u64 != 0 {
			t.Errorf("truncated read = %d, want 0", u64)
		}
	})
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("Load = %v, want ErrTruncated", err)
	}
}

func TestSectionMisuse(t *testing.T) {
	snap := Save(nil, func(c *Codec) {
		c.Begin("s")
		c.Int(new(int))
		c.Int(new(int))
		c.End()
	})
	cases := map[string]struct {
		walk func(*Codec)
		want error
	}{
		"wrong tag": {func(c *Codec) { c.Begin("wrong") }, ErrCorrupt},
		"consumed short": {func(c *Codec) {
			c.Begin("s")
			c.Int(new(int)) // only half the section
			c.End()
		}, ErrCorrupt},
		"read past the end": {func(c *Codec) {
			c.Begin("s")
			for range 3 {
				c.Int(new(int))
			}
		}, ErrTruncated},
		"End without Begin": {func(c *Codec) { c.End() }, ErrCorrupt},
	}
	for name, tc := range cases {
		if err := Load(snap, tc.walk); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
}

func TestCountGuardsAllocation(t *testing.T) {
	for _, count := range []int{1 << 40, -1} {
		snap := Save(nil, func(c *Codec) { c.Int(&count) }) // no elements behind it
		err := Load(snap, func(c *Codec) {
			if n := c.Len("list", 0, 8, Unbounded); n != 0 {
				t.Errorf("Len(%d) = %d, want 0", count, n)
			}
		})
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("count %d: err = %v, want ErrCorrupt", count, err)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.ckpt")
	v := uint64(99)
	walk := func(c *Codec) {
		c.Begin("root")
		c.U64(&v)
		c.End()
	}
	if err := WriteFile(path, Save(nil, walk)); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries after WriteFile, want 1", len(entries))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v = 0
	if err := Load(data, walk); err != nil || v != 99 {
		t.Errorf("payload = %d, %v; want 99", v, err)
	}
}
