package checkpoint

import (
	"bytes"
	"errors"
	"testing"
)

// widget is a component in miniature: one State walk with a fixed-size
// table, a bounded slice, a set, a keyed map and named-type fields.
type widget struct {
	table [4]uint16
	stack []uint64
	seen  map[uint64]struct{}
	depth map[uint64]int
	kind  int8
	pos   int32
	on    bool
	name  string
}

const widgetStackCap = 3

func (w *widget) State(c *Codec) {
	c.Begin("widget")
	c.Fixed("table size", len(w.table))
	for i := range w.table {
		c.U16(&w.table[i])
	}
	Words(c, "stack", &w.stack, widgetStackCap)
	Set(c, "seen", w.seen, Unbounded)
	Map(c, "depth", Keys(w.depth), 16, Unbounded, func() { clear(w.depth) }, func(k uint64) {
		v := w.depth[k]
		c.Int(&v)
		w.depth[k] = v
	})
	Byte(c, &w.kind)
	Word32(c, &w.pos)
	c.Bool(&w.on)
	Same(c, "name", w.name, c.String)
	c.End()
}

func newWidget() *widget {
	return &widget{seen: map[uint64]struct{}{}, depth: map[uint64]int{}, name: "w"}
}

func TestCodecRoundTrip(t *testing.T) {
	w := newWidget()
	w.table = [4]uint16{1, 2, 3, 4}
	w.stack = []uint64{7, 8}
	w.seen[9], w.seen[3] = struct{}{}, struct{}{}
	w.depth[5], w.depth[2] = -1, 6
	w.kind, w.pos, w.on = -3, -70000, true
	snap := Save(nil, w.State)

	r := newWidget()
	r.stack = make([]uint64, 1, widgetStackCap)
	r.seen[1000] = struct{}{} // a load replaces contents, it does not merge
	if err := Load(snap, r.State); err != nil {
		t.Fatal(err)
	}
	if again := Save(nil, r.State); !bytes.Equal(again, snap) {
		t.Fatal("bytes changed across a load")
	}
	if _, stale := r.seen[1000]; stale || r.kind != -3 || r.pos != -70000 || cap(r.stack) != widgetStackCap {
		t.Fatalf("loaded widget is off: %+v (stack cap %d)", r, cap(r.stack))
	}

	// Sorted keys: insertion order must not reach the bytes.
	o := newWidget()
	*o = *w
	o.seen = map[uint64]struct{}{3: {}, 9: {}}
	o.depth = map[uint64]int{2: 6, 5: -1}
	if !bytes.Equal(Save(nil, o.State), snap) {
		t.Fatal("map insertion order reached the snapshot bytes")
	}
}

func TestCodecRefusals(t *testing.T) {
	base := newWidget()
	base.stack = []uint64{1, 2, 3}
	cases := map[string]struct {
		into func() *widget
		data func() []byte
		want error
	}{
		"configured value differs": {
			into: func() *widget { w := newWidget(); w.name = "other"; return w },
			data: func() []byte { return Save(nil, base.State) },
			want: ErrCorrupt,
		},
		"container over capacity": {
			into: newWidget,
			data: func() []byte {
				w := newWidget()
				w.stack = []uint64{1, 2, 3, 4}
				return Save(nil, w.State)
			},
			want: ErrCorrupt,
		},
		"count beyond the input": {
			into: newWidget,
			data: func() []byte {
				return Save(nil, func(c *Codec) {
					c.Begin("widget")
					c.Fixed("table size", 4)
					for range 4 {
						c.U16(new(uint16))
					}
					n := 1 << 40 // stack length
					c.Int(&n)
					c.End()
				})
			},
			want: ErrCorrupt,
		},
		"section cut short": {
			into: newWidget,
			data: func() []byte {
				return Save(nil, func(c *Codec) {
					c.Begin("widget")
					c.Fixed("table size", 4)
					c.End()
				})
			},
			want: ErrTruncated,
		},
	}
	for name, tc := range cases {
		if err := Load(tc.data(), tc.into().State); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", name, err, tc.want)
		}
	}
}

// TestCodecBlobAndReset: a blob round trip and refusal, and Save reusing the
// buffer it is handed, so a cadence of snapshots grows one buffer once.
func TestCodecBlobAndReset(t *testing.T) {
	table := []byte{1, 2, 3}
	walk := func(b []byte) func(*Codec) {
		return func(c *Codec) { c.Blob("table", b) }
	}
	first := Save(nil, walk(table))

	buf := make([]byte, 0, 2*len(first))
	again := Save(buf, walk(table))
	if !bytes.Equal(again, first) || &again[0] != &buf[:1][0] {
		t.Fatal("Save over a large-enough buffer reallocated it or framed the walk differently")
	}
	if !bytes.Equal(Save(again, walk(table)), first) {
		t.Fatal("Save over its previous snapshot framed the same walk differently")
	}

	got := make([]byte, 3)
	if err := Load(first, walk(got)); err != nil || !bytes.Equal(got, table) {
		t.Fatalf("blob load: %v, %v", got, err)
	}
	if err := Load(first, walk(make([]byte, 4))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("blob into a table of another size: %v, want ErrCorrupt", err)
	}
}
