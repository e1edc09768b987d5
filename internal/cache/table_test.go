package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dnc/internal/checkpoint"
	"dnc/internal/isa"
)

// refTable is the naive reference for Table: per set, the ways' keys and
// payloads and a recency list of the valid ways, most recent first. A fill
// takes the first empty way, else the last way on the list.
type refTable[K ~uint64, V comparable] struct {
	ways  int
	setOf func(K) int
	keys  []K
	valid []bool
	vals  []V
	order [][]int // per set: valid ways' line indices, MRU first
}

func newRef[K ~uint64, V comparable](sets, ways int, setOf func(K) int) *refTable[K, V] {
	return &refTable[K, V]{ways: ways, setOf: setOf, keys: make([]K, sets*ways),
		valid: make([]bool, sets*ways), vals: make([]V, sets*ways), order: make([][]int, sets)}
}

func (r *refTable[K, V]) find(key K) int {
	s := r.setOf(key) * r.ways
	for i := s; i < s+r.ways; i++ {
		if r.valid[i] && r.keys[i] == key {
			return i
		}
	}
	return -1
}

func (r *refTable[K, V]) touch(i int) {
	s := i / r.ways
	o := slices.DeleteFunc(r.order[s], func(j int) bool { return j == i })
	r.order[s] = append([]int{i}, o...)
}

func (r *refTable[K, V]) drop(i int) {
	s := i / r.ways
	r.order[s] = slices.DeleteFunc(r.order[s], func(j int) bool { return j == i })
	var zero V
	r.keys[i], r.valid[i], r.vals[i] = 0, false, zero
}

// insert mirrors Table.Insert.
func (r *refTable[K, V]) insert(key K) (i int, victim K, old V, evicted bool) {
	if i = r.find(key); i >= 0 {
		r.touch(i)
		return i, victim, old, false
	}
	si := r.setOf(key)
	i = -1
	for w := si * r.ways; w < (si+1)*r.ways; w++ {
		if !r.valid[w] {
			i = w
			break
		}
	}
	if i < 0 {
		i = r.order[si][len(r.order[si])-1]
		victim, old, evicted = r.keys[i], r.vals[i], true
		r.drop(i)
	}
	var zero V
	r.keys[i], r.valid[i], r.vals[i] = key, true, zero
	r.touch(i)
	return i, victim, old, evicted
}

var opNames = [...]string{"Lookup", "Access", "Peek", "Contains", "Line", "Insert",
	"Put", "Update", "Invalidate", "AccessOrInsert", "Reset"}

// tableCase drives one Table and its reference with an operation tape.
type tableCase[K ~uint64, V comparable] struct {
	tb    *Table[K, V]
	ref   *refTable[K, V]
	key   func(byte) K
	val   func(byte) V
	trace []string
}

// run applies the tape three bytes (op, key, payload) at a time and checks
// every result and, after each step, the table's whole state.
func (c *tableCase[K, V]) run(t testing.TB, tape []byte) {
	t.Helper()
	for ; len(tape) >= 3; tape = tape[3:] {
		op, key, val := tape[0]%11, c.key(tape[1]), c.val(tape[2])
		if op == 10 && tape[2]%4 != 0 {
			continue // Reset on a quarter of its draws
		}
		c.trace = append(c.trace, fmt.Sprintf("%s(%#x)", opNames[op], uint64(key)))
		c.step(t, op, key, val)
		c.check(t)
	}
}

func (c *tableCase[K, V]) step(t testing.TB, op byte, key K, val V) {
	t.Helper()
	tb, ref := c.tb, c.ref
	ri := ref.find(key)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf(format+"\ntape: %v", append(args, c.trace)...)
	}
	switch op {
	case 0: // Lookup
		v, ok := tb.Lookup(key)
		if ok != (ri >= 0) || ok && v != ref.vals[ri] {
			fail("Lookup = %v, %v", v, ok)
		}
		if ri >= 0 {
			ref.touch(ri)
		}
	case 1: // Access, then a write through the line
		p := tb.Access(key)
		if (p != nil) != (ri >= 0) || p != nil && *p != ref.vals[ri] {
			fail("Access = %v", p)
		}
		if ri >= 0 {
			ref.touch(ri)
			*p, ref.vals[ri] = val, val
		}
	case 2: // Peek
		v, ok := tb.Peek(key)
		if ok != (ri >= 0) || ok && v != ref.vals[ri] {
			fail("Peek = %v, %v", v, ok)
		}
	case 3: // Contains
		if tb.Contains(key) != (ri >= 0) {
			fail("Contains = %v", !(ri >= 0))
		}
	case 4: // Line, then a write through it
		p := tb.Line(key)
		if (p != nil) != (ri >= 0) || p != nil && *p != ref.vals[ri] {
			fail("Line = %v", p)
		}
		if ri >= 0 {
			*p, ref.vals[ri] = val, val
		}
	case 5: // Insert, then a write through the line
		p, victim, old, evicted := tb.Insert(key)
		_, rv, rold, revicted := ref.insert(key)
		ri = ref.find(key)
		if evicted != revicted || evicted && (victim != rv || old != rold) || *p != ref.vals[ri] {
			fail("Insert = %v, %#x, %v, %v; want %v, %#x, %v, %v", *p, uint64(victim), old, evicted,
				ref.vals[ri], uint64(rv), rold, revicted)
		}
		*p, ref.vals[ri] = val, val
	case 6: // Put
		victim, evicted := tb.Put(key, val)
		_, rv, _, revicted := ref.insert(key)
		ref.vals[ref.find(key)] = val
		if evicted != revicted || evicted && victim != rv {
			fail("Put = %#x, %v; want %#x, %v", uint64(victim), evicted, uint64(rv), revicted)
		}
	case 7: // Update
		if tb.Update(key, val) != (ri >= 0) {
			fail("Update = %v", !(ri >= 0))
		}
		if ri >= 0 {
			ref.vals[ri] = val
		}
	case 8: // Invalidate
		if tb.Invalidate(key) != (ri >= 0) {
			fail("Invalidate = %v", !(ri >= 0))
		}
		if ri >= 0 {
			ref.drop(ri)
		}
	case 9: // AccessOrInsert
		if tb.AccessOrInsert(key) != (ri >= 0) {
			fail("AccessOrInsert = %v", !(ri >= 0))
		}
		ref.insert(key)
	case 10: // Reset
		tb.Reset()
		for i := range ref.keys {
			ref.drop(i)
		}
	}
}

// check holds the table's arrays to the reference: each way's key, valid
// bit and payload, empty ways at recency 0, and each set's valid ways in
// the reference's recency order.
func (c *tableCase[K, V]) check(t testing.TB) {
	t.Helper()
	tb, ref := c.tb, c.ref
	var zero V
	for i, tg := range tb.tags {
		if (tg != 0) != ref.valid[i] || tg != 0 && K(tg>>1) != ref.keys[i] || tb.vals[i] != ref.vals[i] {
			t.Fatalf("line %d: tag %#x payload %v, want key %#x valid %v payload %v\ntape: %v",
				i, tg, tb.vals[i], uint64(ref.keys[i]), ref.valid[i], ref.vals[i], c.trace)
		}
		if tg == 0 && (tb.lrus[i] != 0 || tb.vals[i] != zero) {
			t.Fatalf("empty line %d has recency %d payload %v", i, tb.lrus[i], tb.vals[i])
		}
	}
	for si, want := range ref.order {
		var got []int
		for i := si * tb.ways; i < (si+1)*tb.ways; i++ {
			if tb.tags[i] != 0 {
				got = append(got, i)
			}
		}
		slices.SortFunc(got, func(a, b int) int { return int(tb.lrus[b]) - int(tb.lrus[a]) })
		if !slices.Equal(got, want) {
			t.Fatalf("set %d recency order %v, want %v\ntape: %v", si, got, want, c.trace)
		}
	}
}

// The two index rules in use: the L1s by block number, PC-keyed tables by
// key>>2. Small key spaces make sets fill and keys collide.
func newL1Case() *tableCase[isa.BlockID, Line] {
	tb := New(4*64*2, 2) // 4 sets, 2 ways
	return &tableCase[isa.BlockID, Line]{tb: tb,
		ref: newRef[isa.BlockID, Line](4, 2, func(b isa.BlockID) int { return int(b & 3) }),
		key: func(b byte) isa.BlockID { return isa.BlockID(b % 24) },
		val: func(b byte) Line { return Line{Flags: b & 3, Aux: b >> 2 & 15, Lat: uint64(b) * 41} }}
}

func newPCCase() *tableCase[isa.Addr, uint16] {
	tb := NewTable[uint16](16, 4) // 4 sets, 4 ways
	return &tableCase[isa.Addr, uint16]{tb: tb,
		ref: newRef[isa.Addr, uint16](4, 4, func(a isa.Addr) int { return int(a >> 2 & 3) }),
		key: func(b byte) isa.Addr { return isa.Addr(b % 96) },
		val: func(b byte) uint16 { return uint16(b % 4) }}
}

// TestTableMatchesReference drives both index rules with random tapes.
func TestTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		tape := make([]byte, 3*300)
		rng.Read(tape)
		newL1Case().run(t, tape)
		newPCCase().run(t, tape)
	}
}

// FuzzTable holds both index rules to the reference on any operation tape.
func FuzzTable(f *testing.F) {
	f.Add([]byte{5, 0, 0, 5, 4, 0, 5, 8, 0, 2, 0, 0, 5, 12, 0})
	f.Add([]byte{6, 1, 1, 1, 1, 2, 5, 1, 3, 8, 1, 0, 9, 1, 0, 10, 0, 0})
	f.Fuzz(func(t *testing.T, tape []byte) {
		newL1Case().run(t, tape)
		newPCCase().run(t, tape)
	})
}

// saveTable walks a table into a snapshot.
func saveTable[K ~uint64, V any](tb *Table[K, V], val func(*checkpoint.Codec, *V)) []byte {
	return checkpoint.Save(nil, func(c *checkpoint.Codec) { tb.State(c, val) })
}

// loadTable loads a snapshot into a table.
func loadTable[K ~uint64, V any](data []byte, tb *Table[K, V], val func(*checkpoint.Codec, *V)) error {
	return checkpoint.Load(data, func(c *checkpoint.Codec) { tb.State(c, val) })
}

// TestTableStateRoundTrip: save → load into a fresh table → save is the
// same bytes, and the loaded table is the saved one, recency included.
func TestTableStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tape := make([]byte, 3*400)
	rng.Read(tape)
	c := newL1Case()
	c.run(t, tape)
	saved := saveTable(c.tb, LineState)

	loaded := New(4*64*2, 2)
	if err := loadTable(saved, loaded, LineState); err != nil {
		t.Fatal(err)
	}
	if again := saveTable(loaded, LineState); !bytes.Equal(again, saved) {
		t.Fatal("save → load → save changed the snapshot")
	}
	c.tb = loaded
	c.check(t)
	c.run(t, tape) // and it behaves as the original did

	// A table of another geometry refuses the snapshot.
	if loadTable(saved, New(8*64*2, 2), LineState) == nil {
		t.Fatal("an 8-set table loaded a 4-set snapshot")
	}
}
