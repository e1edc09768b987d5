package prefetch

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dnc/internal/checkpoint"
)

// This file holds the three storage shapes of tables.go to naive reference
// models: direct to a map from index to entry, pages to a flat slice, ring
// to a slice FIFO. Each driver reads an operation tape, checks every result
// and the structure's state as it goes, and ends with a save → load → save
// round trip into a fresh structure.

// allocated counts a page store's allocated pages.
func allocated[T comparable](p *pages[T]) int {
	n := 0
	for _, pg := range p.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// directCase is one direct table geometry, with its key drawn from two tape
// bytes: a spread index and a few values of the bits from shift up, so keys
// collide in a slot under equal and different tags.
type directCase struct {
	entries     int
	shift, bits uint
}

var directCases = []directCase{
	{64, 6, 0},                     // tagless
	{64, 6, 4},                     // the DisTable's rule at one page
	{64, 6, 16},                    // a full tag
	{8 << 10, 12, 8},               // the discontinuity table: tag bit 12 is an index bit
	{1024, 48, 16},                 // RDIP's signature table
	{16 << 10, 14, 10},             // the temporal-stream index
	{2 * pageLen, pageBits + 1, 4}, // two pages
}

func (dc directCase) key(a, b byte) uint64 {
	idx := uint64(a) * uint64(dc.entries/256+1) & uint64(dc.entries-1)
	return idx | uint64(b%4)<<dc.shift | uint64(b>>2)<<60
}

// refDirect is the reference entry of one slot.
type refDirect struct {
	tag uint16
	val uint16
}

// runDirect applies the tape four bytes (op, key, key, value) at a time:
// lookups, whole-payload writes and read-modify-write updates, which expose
// whether a write keeps or zeroes the payload.
func runDirect(t testing.TB, dc directCase, tape []byte) {
	t.Helper()
	tb := newDirect[uint16]("test", dc.entries, dc.shift, dc.bits)
	ref := map[uint64]refDirect{}
	mask := uint64(dc.entries - 1)
	tagOf := func(k uint64) uint16 { return uint16(k >> dc.shift & (1<<dc.bits - 1)) }
	var trace []string
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%+v: "+format+"\ntape: %v", append(append([]any{dc}, args...), trace)...)
	}
	for ; len(tape) >= 4; tape = tape[4:] {
		op, k, v := tape[0]%3, dc.key(tape[1], tape[2]), uint16(tape[3])
		trace = append(trace, fmt.Sprintf("%d(%#x,%d)", op, k, v))
		r, ok := ref[k&mask]
		hit := ok && r.tag == tagOf(k)
		switch op {
		case 0:
			got := tb.lookup(k)
			if (got != nil) != hit || hit && *got != r.val {
				fail("lookup(%#x) = %v, want hit %v payload %d", k, got, hit, r.val)
			}
		case 1:
			*tb.write(k) = v
			ref[k&mask] = refDirect{tagOf(k), v}
		case 2:
			p := tb.write(k)
			if !hit {
				r.val = 0
			}
			if *p != r.val {
				fail("write(%#x) payload %d, want %d", k, *p, r.val)
			}
			*p += v
			ref[k&mask] = refDirect{tagOf(k), r.val + v}
		}
		if e := tb.slots.peek(k & mask); op != 0 && (e == nil || !e.valid || e.tag != tagOf(k) || e.val != ref[k&mask].val) {
			fail("slot %d after write = %+v, want %+v", k&mask, e, ref[k&mask])
		}
	}
	checkDirect := func(tb *direct[uint16]) {
		t.Helper()
		for i, r := range ref {
			if e := tb.slots.peek(i); e == nil || !e.valid || e.tag != r.tag || e.val != r.val {
				fail("slot %d = %+v, want %+v", i, e, r)
			}
		}
		for pi, pg := range tb.slots.pages {
			held := false
			for j := range pg {
				_, valid := ref[uint64(pi<<pageBits+j)]
				held = held || valid
				if !valid && pg[j] != (slot[uint16]{}) {
					fail("slot %d = %+v, want it empty", pi<<pageBits+j, pg[j])
				}
			}
			if pg != nil && !held {
				fail("page %d is allocated but holds no entry", pi)
			}
		}
	}
	checkDirect(tb)
	walk := func(tb *direct[uint16]) func(*checkpoint.Codec) {
		return func(c *checkpoint.Codec) { tb.state(c, "test entries", c.U16) }
	}
	loaded := newDirect[uint16]("test", dc.entries, dc.shift, dc.bits)
	roundTrip(t, walk(tb), walk(loaded))
	checkDirect(loaded)
}

// runPages applies the tape three bytes (op, index, value) at a time to a
// store whose last page is short, against a flat slice.
func runPages(t testing.TB, blank uint16, tape []byte) {
	t.Helper()
	n := 2*pageLen + 100
	p := newPages(n, blank)
	ref := make([]uint16, n)
	for i := range ref {
		ref[i] = blank
	}
	touched := map[int]bool{}
	for ; len(tape) >= 3; tape = tape[3:] {
		i := uint64(tape[1]) * uint64(n/255) % uint64(n)
		if tape[0]&1 == 0 {
			i = uint64(n - 1 - int(tape[1])) // the short last page
		}
		v := uint16(tape[2]) * 0x101
		switch tape[0] % 4 {
		case 0, 1:
			got := blank
			if e := p.peek(i); e != nil {
				got = *e
			} else if touched[int(i>>pageBits)] {
				t.Fatalf("peek(%d) = nil on an allocated page", i)
			}
			if got != ref[i] {
				t.Fatalf("element %d = %#x, want %#x", i, got, ref[i])
			}
		case 2, 3:
			*p.at(i) = v
			ref[i] = v
			touched[int(i>>pageBits)] = true
		}
		if allocated(&p) != len(touched) {
			t.Fatalf("%d pages allocated, want %d", allocated(&p), len(touched))
		}
	}
	walk := func(p *pages[uint16]) func(*checkpoint.Codec) {
		return func(c *checkpoint.Codec) { p.state(c.U16) }
	}
	loaded := newPages(n, blank)
	roundTrip(t, walk(&p), walk(&loaded))
	differ := map[int]bool{}
	for i, v := range ref {
		if v != blank {
			differ[i>>pageBits] = true
		}
	}
	if allocated(&loaded) != len(differ) {
		t.Fatalf("a load allocated %d pages, want the %d that differ from blank", allocated(&loaded), len(differ))
	}
	for i := range ref {
		got := blank
		if e := loaded.peek(uint64(i)); e != nil {
			got = *e
		}
		if got != ref[i] {
			t.Fatalf("loaded element %d = %#x, want %#x", i, got, ref[i])
		}
	}
}

// runRing applies the tape two bytes (op, value) at a time to a ring of the
// given capacity, against a slice FIFO.
func runRing(t testing.TB, capacity int, tape []byte) {
	t.Helper()
	r := newRing[uint16](capacity)
	var ref []uint16
	for ; len(tape) >= 2; tape = tape[2:] {
		v := uint16(tape[1])
		switch tape[0] % 8 {
		case 0, 1, 2:
			r.push(v)
			if len(ref) < capacity {
				ref = append(ref, v)
			}
		case 3, 4:
			got, ok := r.pop()
			if ok != (len(ref) > 0) || ok && got != ref[0] {
				t.Fatalf("pop = %d, %v; want %v", got, ok, ref)
			}
			if ok {
				ref = ref[1:]
			}
		case 5:
			f, fok := r.front()
			b, bok := r.back()
			if fok != (len(ref) > 0) || bok != fok || fok && (f != ref[0] || b != ref[len(ref)-1]) {
				t.Fatalf("front, back = %d, %d; want %v", f, b, ref)
			}
		case 6:
			if tape[1]%4 == 0 {
				r.reset()
				ref = ref[:0]
			}
		}
		if r.len() != len(ref) || r.full() != (len(ref) == capacity) || r.cap() != capacity {
			t.Fatalf("len %d full %v cap %d, want %v", r.len(), r.full(), r.cap(), ref)
		}
	}
	walk := func(r *ring[uint16]) func(*checkpoint.Codec) {
		return func(c *checkpoint.Codec) { r.state(c, "test", 2, c.U16) }
	}
	loaded := newRing[uint16](capacity)
	roundTrip(t, walk(&r), walk(&loaded))
	var got []uint16
	for v, ok := loaded.pop(); ok; v, ok = loaded.pop() {
		got = append(got, v)
	}
	if !slices.Equal(got, ref) {
		t.Fatalf("loaded ring pops %v, want %v", got, ref)
	}
}

// roundTrip saves through from, loads into to and saves again: the two
// snapshots must be the same bytes.
func roundTrip(t testing.TB, from, to func(*checkpoint.Codec)) {
	t.Helper()
	snap := checkpoint.Save(nil, from)
	if err := checkpoint.Load(snap, to); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(checkpoint.Save(nil, to), snap) {
		t.Fatal("save → load → save changed the snapshot")
	}
}

// runTables drives every structure and geometry with one tape.
func runTables(t testing.TB, tape []byte) {
	for _, dc := range directCases {
		runDirect(t, dc, tape)
	}
	for _, blank := range []uint16{0, 0xffff} {
		runPages(t, blank, tape)
	}
	for _, capacity := range []int{0, 1, 3, 16} {
		runRing(t, capacity, tape)
	}
}

// TestPrefetchTablesMatchReference drives the three structures with random
// tapes.
func TestPrefetchTablesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 40 {
		tape := make([]byte, 4*200)
		rng.Read(tape)
		runTables(t, tape)
	}
}

// FuzzPrefetchTables holds the three structures to their references on any
// operation tape.
func FuzzPrefetchTables(f *testing.F) {
	f.Add([]byte{1, 3, 0, 7, 1, 3, 1, 9, 0, 3, 0, 0, 2, 3, 1, 4, 0, 3, 1, 0})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 3, 0, 0, 4, 0, 5, 3, 0, 5, 0, 2, 9, 3, 0})
	f.Fuzz(func(t *testing.T, tape []byte) { runTables(t, tape) })
}
