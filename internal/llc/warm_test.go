package llc

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dnc/internal/checkpoint/checkpointtest"
	"dnc/internal/isa"
)

// eager is the reference Warm is held to: an LLC from New with each image
// block Inserted, in ascending order.
func eager(cfg Config, first, last isa.BlockID) *LLC {
	c := New(cfg)
	for b := first; b <= last; b++ {
		c.Insert(b, true)
	}
	return c
}

// peek is c's snapshot taken from a copy of it, so the sets of c that
// nothing has touched stay untouched.
func peek(c *LLC) []byte {
	d := *c
	d.lines, d.lru, d.hints = slices.Clone(c.lines), slices.Clone(c.lru), slices.Clone(c.hints)
	d.holder, d.bfLen, d.bfs = slices.Clone(c.holder), slices.Clone(c.bfLen), slices.Clone(c.bfs)
	d.touched = slices.Clone(c.touched)
	return snapshot(&d)
}

// validLines counts the valid line words of an LLC whose every set is
// written.
func validLines(c *LLC) int {
	n := 0
	for _, l := range c.lines {
		if l != 0 {
			n++
		}
	}
	return n
}

// untouchedSets counts the sets still waiting for their first touch.
func untouchedSets(c *LLC) int {
	n := 0
	for _, h := range c.hints {
		if h == untouched {
			n++
		}
	}
	return n
}

// op applies one operation of a tape to c: a demand access (filling on a
// miss, as the uncore does), an insert, a residency probe, a footprint store
// or load, or a bank access.
func op(c *LLC, kind uint8, b isa.BlockID, arg uint8) {
	switch kind % 6 {
	case 0:
		if !c.Access(b, arg&1 != 0) {
			c.Insert(b, arg&1 != 0)
		}
	case 1:
		c.Insert(b, arg&1 != 0)
	case 2:
		c.Contains(b)
	case 3:
		var bf isa.BF
		bf.Add(arg % 64)
		c.StoreBF(b, bf)
	case 4:
		c.LoadBF(b)
	case 5:
		c.BankDelay(b, uint64(arg))
	}
}

// sameAsEager fails the test unless the lazily warmed LLC and the eager
// reference agree on everything either exposes: snapshot bytes, counters,
// audit findings and occupancy (the reference's counter recounted too).
func sameAsEager(t testing.TB, what string, lazy, ref *LLC) {
	t.Helper()
	if !bytes.Equal(peek(lazy), snapshot(ref)) {
		t.Fatalf("%s: snapshot bytes differ from the eager preload", what)
	}
	if lazy.Stats() != ref.Stats() {
		t.Fatalf("%s: stats %+v, eager %+v", what, lazy.Stats(), ref.Stats())
	}
	if got, want := fmt.Sprint(lazy.Audit()), fmt.Sprint(ref.Audit()); got != want {
		t.Fatalf("%s: audit %s, eager %s", what, got, want)
	}
	if lazy.Occupancy() != ref.Occupancy() || ref.Occupancy() != validLines(ref) {
		t.Fatalf("%s: occupancy %d, eager %d, eager recounted %d",
			what, lazy.Occupancy(), ref.Occupancy(), validLines(ref))
	}
}

// drive runs the same seeded traffic through lazy and ref in batches,
// comparing the two after each, over blocks around the image and past it.
func drive(t *testing.T, what string, lazy, ref *LLC, first, last isa.BlockID, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	span := int64(last-first) + int64(len(lazy.hints))*3
	for batch := 0; batch < 8; batch++ {
		for i := 0; i < 400; i++ {
			b := isa.BlockID(max(0, int64(first)-int64(len(lazy.hints))+r.Int63n(span)))
			kind, arg := uint8(r.Intn(6)), uint8(r.Intn(256))
			op(lazy, kind, b, arg)
			op(ref, kind, b, arg)
		}
		sameAsEager(t, fmt.Sprintf("%s, batch %d", what, batch), lazy, ref)
	}
}

func overflowing(dv bool) Config {
	cfg := DefaultConfig()
	cfg.SizeBytes, cfg.DV = 1<<20, dvIf(dv)
	return cfg
}

// TestWarmEqualsEagerPreload: an LLC that Warm preloads and fills set by set
// on first touch is, to the snapshot byte, the LLC that inserting every image
// block leaves — before any traffic, and after each batch of the same
// traffic through both. The 1 MB LLC's image (40,000 blocks in 1,024 sets)
// overflows every set, so the preload itself evicts; two ways with DV on is
// the geometry in which the preload releases and re-pins holders.
func TestWarmEqualsEagerPreload(t *testing.T) {
	twoWays := small(true)
	twoWays.Ways, twoWays.SizeBytes = 2, 4*16*2*isa.BlockBytes
	cases := []struct {
		name        string
		cfg         Config
		first, last isa.BlockID
	}{
		{"DV off", small(false), 1000, 1300},
		{"DV on", small(true), 1000, 1300},
		{"DV on, image fills every way", small(true), 7, 7 + 8*64 + 100},
		{"1 MB, DV off, overflowing image", overflowing(false), 5000, 45_000},
		{"1 MB, DV on, overflowing image", overflowing(true), 5000, 45_000},
		{"2 ways, DV on", twoWays, 3, 3 + 5*128 + 17},
		{"one block", small(true), 42, 42},
	}
	for i, tc := range cases {
		lazy, ref := New(tc.cfg), eager(tc.cfg, tc.first, tc.last)
		lazy.Warm(tc.first, tc.last)
		if n := untouchedSets(lazy); n != len(lazy.hints) {
			t.Fatalf("%s: Warm wrote %d sets", tc.name, len(lazy.hints)-n)
		}
		if ref.Stats().Evictions == 0 && tc.cfg.SizeBytes == 1<<20 {
			t.Fatalf("%s: the preload evicted nothing", tc.name)
		}
		sameAsEager(t, tc.name+", warmed", lazy, ref)
		drive(t, tc.name, lazy, ref, tc.first, tc.last, int64(i))
		if n := untouchedSets(lazy); n == 0 {
			t.Logf("%s: the traffic touched every set", tc.name)
		}
	}
}

// TestWarmAcrossRecycling: one LLC taken through image A, image B, no
// preload, a restore then A again, and B, reset in between as Acquire resets it,
// equals at every step a fresh eager reference of that step.
func TestWarmAcrossRecycling(t *testing.T) {
	for _, dv := range []bool{false, true} {
		cfg := small(dv)
		type image struct{ first, last isa.BlockID }
		a, b, none := image{100, 900}, image{3, 200}, image{1, 0}
		c := New(cfg)
		for i, im := range []image{a, b, none, a, b} {
			c.reset()
			what := fmt.Sprintf("dv=%v, step %d", dv, i)
			if i == 3 {
				// A restore writes every set, the untouched ones included,
				// and the next reset must empty them all.
				src := eager(cfg, b.first, b.last)
				churn(src, 11, 3000)
				if err := checkpointtest.Load(snapshot(src), c.State); err != nil {
					t.Fatal(err)
				}
				sameAsEager(t, what+", restored", c, src)
				c.reset()
			}
			if !bytes.Equal(peek(c), snapshot(New(cfg))) {
				t.Fatalf("%s: reset LLC differs from New", what)
			}
			ref := New(cfg)
			if im != none {
				c.Warm(im.first, im.last)
				ref = eager(cfg, im.first, im.last)
			}
			sameAsEager(t, what, c, ref)
			drive(t, what, c, ref, im.first, max(im.first, im.last), int64(10+i))
		}
	}
}

// TestAuditAfterRestoreSeesEverySet: the auditor visits the sets a run
// touched, and after a restore that is every set, since the snapshot wrote
// them all. A restored violation the loader lets through (a block in the
// BF-holder way) is reported though nothing touched its set since.
func TestAuditAfterRestoreSeesEverySet(t *testing.T) {
	src := tiny(true, 2)
	b0 := blockInSet(src, 1, 3, 0)
	src.Insert(b0, true)
	si := src.setOf(b0)
	src.lines[si*src.ways+int(src.holder[si])-1] = packLine(blockInSet(src, 1, 3, 1), false)
	dst := tiny(true, 2)
	if err := checkpointtest.Load(snapshot(src), dst.State); err != nil {
		t.Fatal(err)
	}
	if errs := dst.Audit(); len(errs) != 1 {
		t.Fatalf("audit of the restored LLC reported %v, want the block in the BF-holder way", errs)
	}
}

// TestWarmRefusesUsedLLC: Warm computes what the preload leaves in an empty
// LLC, so it refuses one that anything has touched.
func TestWarmRefusesUsedLLC(t *testing.T) {
	c := New(small(false))
	c.Contains(5)
	defer func() {
		if recover() == nil {
			t.Fatal("Warm on a touched LLC did not panic")
		}
	}()
	c.Warm(0, 10)
}

// FuzzLLCWarm holds Warm to the eager preload on an image range and an
// operation tape: three bytes an operation (kind, block offset from the
// image start, argument).
func FuzzLLCWarm(f *testing.F) {
	f.Add(uint16(100), uint16(300), false, []byte{0, 1, 2, 1, 5, 1, 3, 5, 7, 4, 5, 0})
	f.Add(uint16(0), uint16(2000), true, []byte{1, 200, 1, 3, 200, 9, 4, 200, 0, 0, 3, 1})
	f.Add(uint16(513), uint16(0), true, []byte{3, 0, 1, 4, 0, 0})
	f.Fuzz(func(t *testing.T, start, length uint16, dv bool, tape []byte) {
		cfg := small(dv)
		first, n := isa.BlockID(start), isa.BlockID(length%4096)
		lazy, ref := New(cfg), New(cfg)
		if n > 0 { // length 0: no preload
			lazy.Warm(first, first+n-1)
			ref = eager(cfg, first, first+n-1)
		}
		for i := 0; i+2 < len(tape); i += 3 {
			b := first + isa.BlockID(tape[i+1])*7
			op(lazy, tape[i], b, tape[i+2])
			op(ref, tape[i], b, tape[i+2])
		}
		sameAsEager(t, "after the tape", lazy, ref)
	})
}
