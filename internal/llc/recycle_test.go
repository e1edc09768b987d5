package llc

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"dnc/internal/checkpoint"
	"dnc/internal/checkpoint/checkpointtest"
	"dnc/internal/isa"
)

func snapshot(c *LLC) []byte { return checkpointtest.Save(c.State) }

// churn drives a seeded mix of every mutating operation through the LLC,
// over few enough blocks that sets fill, evict, pin and release holders.
func churn(c *LLC, seed int64, n int) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		b := isa.BlockID(r.Intn(6 * len(c.lines)))
		switch r.Intn(6) {
		case 0, 1:
			if !c.Access(b, r.Intn(2) == 0) {
				c.Insert(b, r.Intn(2) == 0)
			}
		case 2:
			c.Insert(b, true)
		case 3:
			var bf isa.BF
			bf.Add(uint8(r.Intn(64)))
			c.StoreBF(b, bf)
		case 4:
			c.LoadBF(b)
		case 5:
			c.BankDelay(b, uint64(i))
		}
	}
}

func small(dv bool) Config {
	return Config{
		SizeBytes: 4 * 16 * 8 * isa.BlockBytes, Ways: 8, Banks: 4,
		AccessCycles: 18, BankServiceCycles: 8, DV: dvIf(dv), BFsPerSet: 3,
	}
}

// TestRecycledEqualsNew is the core of LLC reuse: whatever a previous run
// left behind — touched sets, or every set after a restore — a reset LLC is
// New's, and warms as New's does, to the snapshot byte, and still so after
// both take the same traffic.
func TestRecycledEqualsNew(t *testing.T) {
	for _, dv := range []bool{false, true} {
		cfg := small(dv)
		used := New(cfg)
		used.Warm(100, 700)
		churn(used, 1, 20_000)
		if errs := used.Audit(); len(errs) != 0 {
			t.Fatalf("dv=%v: churned LLC audits dirty: %v", dv, errs[0])
		}
		if dv && (bytes.Count(used.holder, []byte{0}) == len(used.holder) ||
			used.Stats().BFLoadHits == 0 || used.Stats().Evictions == 0) {
			t.Fatalf("churn exercised too little: %+v", used.Stats())
		}

		// peek, not snapshot: a snapshot writes every set, and then reset
		// would not be emptying the touched ones alone.
		used.reset()
		fresh := New(cfg)
		if used.allTouched || !bytes.Equal(peek(used), snapshot(fresh)) {
			t.Fatalf("dv=%v: reset LLC differs from New", dv)
		}
		churn(used, 2, 20_000)
		churn(fresh, 2, 20_000)
		if !bytes.Equal(peek(used), snapshot(fresh)) {
			t.Fatalf("dv=%v: reset LLC diverged from New under identical traffic", dv)
		}

		// After a restore every set is the snapshot's, and reset empties
		// them all. Either way a reset LLC warms as a fresh one does.
		other := New(cfg)
		churn(other, 3, 20_000)
		if err := checkpointtest.Load(snapshot(fresh), other.State); err != nil {
			t.Fatal(err)
		}
		churn(other, 4, 20_000)
		for _, c := range []*LLC{used, other} {
			c.reset()
			if !bytes.Equal(peek(c), snapshot(New(cfg))) {
				t.Fatalf("dv=%v: reset LLC differs from New", dv)
			}
			fresh = New(cfg)
			c.Warm(100, 700)
			fresh.Warm(100, 700)
			churn(c, 5, 20_000)
			churn(fresh, 5, 20_000)
			if !bytes.Equal(peek(c), snapshot(fresh)) {
				t.Fatalf("dv=%v: reset and warmed LLC diverged from a fresh one under identical traffic", dv)
			}
			if errs := c.Audit(); len(errs) != 0 {
				t.Fatalf("dv=%v: audit after reuse: %v", dv, errs[0])
			}
		}
	}
}

// TestPoolKeepsConfigurationsApart: a released LLC only ever comes back for
// its own full configuration — not for another size, associativity, DV mode
// or footprint capacity — and comes back empty.
func TestPoolKeepsConfigurationsApart(t *testing.T) {
	base := small(true)
	variants := []Config{base, base, base, base}
	variants[1].SizeBytes *= 2
	variants[2].DV = DVOff
	variants[3].BFsPerSet = 1

	released := New(base)
	churn(released, 5, 5_000)
	released.Release()
	for _, cfg := range variants[1:] {
		c := Acquire(cfg)
		if c == released {
			t.Fatalf("Acquire(%+v) handed out an LLC of %+v", cfg, base)
		}
		if c.Config() != cfg.Normalized() || !bytes.Equal(snapshot(c), snapshot(New(cfg))) {
			t.Fatalf("Acquire(%+v) is not an empty LLC of that configuration", cfg)
		}
	}
	// Its own configuration does get it back (when the pool still has it:
	// sync.Pool may drop entries, always under the race detector), empty.
	if c := Acquire(base); !bytes.Equal(snapshot(c), snapshot(New(base))) {
		t.Fatal("recycled LLC is not empty")
	} else if c != released {
		t.Log("the pool dropped the released LLC; recycling itself went unexercised here")
	}
}

// TestAuditTripsOnSeededCorruption seeds each structural violation the
// auditor names into an otherwise healthy DV-LLC and checks it is reported.
func TestAuditTripsOnSeededCorruption(t *testing.T) {
	// healthy returns an LLC whose set si pins a holder, holds two
	// instruction blocks and stores a footprint for the first.
	healthy := func() (c *LLC, si int, b0, b1 isa.BlockID) {
		c = tiny(true, 2)
		b0, b1 = blockInSet(c, 1, 2, 0), blockInSet(c, 1, 2, 1)
		c.Insert(b0, true)
		c.Insert(b1, true)
		if !c.StoreBF(b0, isa.BF{Count: 1}) {
			t.Fatal("setup: StoreBF failed")
		}
		if errs := c.Audit(); len(errs) != 0 {
			t.Fatalf("setup: healthy LLC audits dirty: %v", errs)
		}
		return c, c.setOf(b0), b0, b1
	}
	cases := []struct {
		name    string
		corrupt func(c *LLC, si int, b0, b1 isa.BlockID)
		want    string
	}{
		{"holder way out of range", func(c *LLC, si int, _, _ isa.BlockID) {
			c.holder[si] = uint8(c.ways + 1)
		}, "out of range"},
		{"footprints without a holder", func(c *LLC, si int, _, _ isa.BlockID) {
			c.holder[si] = 0
		}, "with no BF-holder way"},
		{"holder overfilled", func(c *LLC, si int, _, _ isa.BlockID) {
			c.bfLen[si] = uint8(c.bfCap + 1)
		}, "cap is"},
		{"holder without an instruction block", func(c *LLC, si int, _, _ isa.BlockID) {
			for w := 0; w < c.ways; w++ {
				c.lines[si*c.ways+w] &^= instBit
			}
		}, "no resident instruction block"},
		{"footprint for a block that left", func(c *LLC, si int, b0, _ isa.BlockID) {
			c.lines[si*c.ways+c.find(si, b0)] = 0
		}, "holds no block"},
		{"footprint pointing past the ways", func(c *LLC, si int, _, _ isa.BlockID) {
			c.bfs[si*c.bfCap].way = uint8(c.ways)
		}, "holds no block"},
		{"two footprints for one block", func(c *LLC, si int, _, _ isa.BlockID) {
			c.bfs[si*c.bfCap+1] = c.bfs[si*c.bfCap]
			c.bfLen[si] = 2
		}, "two footprints"},
		{"block in the holder way", func(c *LLC, si int, _, b1 isa.BlockID) {
			c.lines[si*c.ways+int(c.holder[si])-1] = packLine(b1+1024, false)
		}, "holds block"},
	}
	for _, tc := range cases {
		c, si, b0, b1 := healthy()
		tc.corrupt(c, si, b0, b1)
		errs := c.Audit()
		if len(errs) == 0 || !strings.Contains(errors.Join(errs...).Error(), tc.want) {
			t.Errorf("%s: audit reported %v, want a violation mentioning %q", tc.name, errs, tc.want)
		}
	}

	// With DV off the only footprint state is the holder byte.
	c := tiny(false, 0)
	c.Insert(blockInSet(c, 0, 0, 0), true)
	c.holder[0] = 1
	if errs := c.Audit(); len(errs) != 1 || !strings.Contains(errs[0].Error(), "DV off") {
		t.Errorf("holder pinned with DV off: audit reported %v", errs)
	}
}

// TestRestoreRoundTripAndRejections: a churned LLC restores into a used one
// byte for byte, and snapshots describing state an LLC cannot hold are
// refused as corrupt instead of being loaded.
func TestRestoreRoundTripAndRejections(t *testing.T) {
	src := New(small(true))
	churn(src, 7, 20_000)
	b0, b1 := blockInSet(src, 0, 0, 1000), blockInSet(src, 0, 0, 1001)
	src.Insert(b0, true)
	src.Insert(b1, true)
	src.StoreBF(b0, isa.BF{Count: 1})
	src.StoreBF(b1, isa.BF{Count: 2})
	if src.bfLen[src.setOf(b0)] < 2 {
		t.Fatal("setup: no set stores two footprints")
	}
	want := snapshot(src)

	restore := func(into *LLC, data []byte) error { return checkpointtest.Load(data, into.State) }
	dst := New(small(true))
	churn(dst, 8, 20_000)
	if err := restore(dst, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshot(dst), want) {
		t.Fatal("snapshot bytes changed across restore")
	}
	if errs := dst.Audit(); len(errs) != 0 {
		t.Fatalf("restored LLC audits dirty: %v", errs[0])
	}

	// A DV snapshot (holders pinned, footprints stored) into a DV-off LLC of
	// the same geometry, and into one whose holders store fewer footprints.
	for name, cfg := range map[string]Config{
		"DV off":          small(false),
		"smaller holders": func() Config { c := small(true); c.BFsPerSet = 1; return c }(),
	} {
		if err := restore(New(cfg), want); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s: restore returned %v, want ErrCorrupt", name, err)
		}
	}
}
