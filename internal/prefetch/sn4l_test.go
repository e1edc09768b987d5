package prefetch

import (
	"bytes"
	"runtime"
	"testing"

	"dnc/internal/cache"
	"dnc/internal/checkpoint"
	"dnc/internal/isa"
)

// TestSN4LTriggerMatrix pins the trigger rules: which nibble source governs
// the candidates (the resident line's cached Aux on hits, the SeqTable on
// misses) and which candidate bits issue prefetches.
func TestSN4LTriggerMatrix(t *testing.T) {
	const blk = isa.BlockID(100)
	cases := []struct {
		name string
		hit  bool
		// aux is the resident line's local status (hits only).
		aux uint8
		// reset marks SeqTable entries unuseful before the access.
		reset []isa.BlockID
		want  []isa.BlockID
	}{
		{name: "hit/full-nibble", hit: true, aux: 0b1111, want: []isa.BlockID{101, 102, 103, 104}},
		{name: "hit/sparse-nibble", hit: true, aux: 0b0101, want: []isa.BlockID{101, 103}},
		{name: "hit/zero-nibble", hit: true, aux: 0, want: nil},
		// On a hit the cached nibble is authoritative even when the
		// SeqTable disagrees — that is the point of the local status bits.
		{name: "hit/stale-table", hit: true, aux: 0b0001, reset: []isa.BlockID{101}, want: []isa.BlockID{101}},
		{name: "miss/table-direct", hit: false, reset: []isa.BlockID{102, 104}, want: []isa.BlockID{101, 103}},
		{name: "miss/all-useful", hit: false, want: []isa.BlockID{101, 102, 103, 104}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := newFakeEnv()
			d := NewSN4L(1024, 2048)
			d.Bind(env)
			for _, b := range tc.reset {
				d.seq.Reset(b)
			}
			if tc.hit {
				env.install(blk).Aux = tc.aux
			}
			d.OnDemand(blk, tc.hit, [2]isa.Addr{})
			got := issuedSet(env.issued)
			for _, b := range tc.want {
				if !got[b] {
					t.Errorf("candidate %d not prefetched: %v", b, env.issued)
				}
			}
			if len(env.issued) != len(tc.want) {
				t.Errorf("issued %v, want exactly %v", env.issued, tc.want)
			}
		})
	}
}

// TestSN4LDedupAgainstCacheState pins the issue-side filtering: resident and
// in-flight candidates are skipped without consuming an issue slot.
func TestSN4LDedupAgainstCacheState(t *testing.T) {
	env := newFakeEnv()
	d := NewSN4L(1024, 2048)
	d.Bind(env)
	env.install(102)         // resident: skip
	env.inflight[103] = true // outstanding: skip
	d.OnDemand(100, false, [2]isa.Addr{})
	got := issuedSet(env.issued)
	if got[102] || got[103] {
		t.Fatalf("resident/in-flight candidates issued: %v", env.issued)
	}
	if !got[101] || !got[104] {
		t.Fatalf("free candidates not issued: %v", env.issued)
	}
	if len(env.issued) != 2 {
		t.Fatalf("issued %v, want exactly [101 104]", env.issued)
	}
}

// TestSN4LMissMarksSelfUseful pins the learning rule that re-arms an entry:
// a miss proves the block is worth prefetching and must also refresh the
// stale local-status bit of a resident predecessor.
func TestSN4LMissMarksSelfUseful(t *testing.T) {
	env := newFakeEnv()
	d := NewSN4L(1024, 2048)
	d.Bind(env)
	d.seq.Reset(200)
	pred := env.install(199) // holds bit 0 for block 200
	pred.Aux = 0
	d.OnDemand(200, false, [2]isa.Addr{})
	if !d.seq.Get(200) {
		t.Fatal("miss did not re-arm the SeqTable entry")
	}
	if pred.Aux&1 == 0 {
		t.Fatal("miss did not refresh the predecessor's local status bit")
	}
}

// TestSN4LUsefulHitCounter pins the useful-hit rule: only demand hits on
// still-tagged prefetched lines count as useful, re-arming the block's
// SeqTable entry, and each line counts once (the hit consumes its tag).
func TestSN4LUsefulHitCounter(t *testing.T) {
	env := newFakeEnv()
	d := NewSN4L(1024, 2048)
	d.Bind(env)
	l := env.install(300)
	l.Flags |= cache.FlagPrefetched
	d.seq.Reset(300)
	d.OnDemand(300, true, [2]isa.Addr{})
	if l.Flags&cache.FlagPrefetched != 0 || !d.seq.Get(300) {
		t.Fatalf("useful hit: flags %#x, entry set %v; want the tag consumed and the entry re-armed",
			l.Flags, d.seq.Get(300))
	}
	d.seq.Reset(300)
	d.OnDemand(300, true, [2]isa.Addr{}) // flag already consumed
	if d.seq.Get(300) {
		t.Fatal("a hit on a consumed line counted as useful again")
	}
}

// TestSN4LUnlimitedTable pins the unlimited (0-entry) reference
// configuration of Figure 11: entries never alias.
func TestSN4LUnlimitedTable(t *testing.T) {
	tab := newSeqTable(0)
	tab.Reset(7)
	if tab.Get(7) {
		t.Fatal("reset lost")
	}
	if !tab.Get(7 + 1<<20) {
		t.Fatal("distant block aliased in the unlimited table")
	}
}

// TestUnlimitedTablesAreSparse: an unlimited DisTable and SeqTable allocate
// under 1 MB up front and keep their size and storage accounting.
func TestUnlimitedTablesAreSparse(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dis := newDisTable(0, 4)
	seq := newSeqTable(0)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("unlimited tables allocated %d bytes up front, want under 1 MB", got)
	}
	if dis.entries() != 1<<26 || disTableBits(dis) != (16+4)<<26 || seq.Entries() != 1<<26 || seq.words.n != 1<<20+1 {
		t.Fatalf("unlimited sizes: DisTable %d entries in %d bits, SeqTable %d entries in %d words",
			dis.entries(), disTableBits(dis), seq.Entries(), seq.words.n)
	}
}

// TestTablePagesOnFirstTouch: a multi-page DisTable and SeqTable allocate a
// page only where they learn, snapshot every entry as the flat tables did,
// and restore into fresh tables holding only the pages that differ from
// the untouched state.
func TestTablePagesOnFirstTouch(t *testing.T) {
	dis, seq := newDisTable(4*pageLen, 4), newSeqTable(4*64*pageLen)
	farDis, farSeq := isa.BlockID(4*pageLen-3), isa.BlockID(4*64*pageLen-3)
	disRecord(dis, 5, 12)
	disRecord(dis, farDis, 40)
	seq.Reset(9)
	seq.Reset(farSeq)
	seq.Set(farSeq)
	pages := func() (d, s int) { return allocated(&dis.slots), allocated(&seq.words) }
	if d, s := pages(); d != 2 || s != 2 {
		t.Fatalf("%d DisTable and %d SeqTable pages allocated, want 2 each", d, s)
	}
	dis2, seq2 := newDisTable(4*pageLen, 4), newSeqTable(4*64*pageLen)
	for _, tab := range []struct{ from, to func(*checkpoint.Codec) }{
		{func(c *checkpoint.Codec) { stateDisTable(c, dis) }, func(c *checkpoint.Codec) { stateDisTable(c, dis2) }},
		{seq.State, seq2.State},
	} {
		snap := checkpoint.Save(nil, tab.from)
		if err := checkpoint.Load(snap, tab.to); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(checkpoint.Save(nil, tab.to), snap) {
			t.Fatal("a restored table snapshots different bytes")
		}
	}
	dis, seq = dis2, seq2
	if d, s := pages(); d != 2 || s != 1 {
		t.Fatalf("restored tables hold %d DisTable and %d SeqTable pages, want 2 and 1 (the far SeqTable page is all set again)", d, s)
	}
	if off, ok := disLookup(dis, farDis); !ok || off != 40 {
		t.Fatalf("restored DisTable lost block %d: %d, %v", farDis, off, ok)
	}
	if seq.Get(9) || !seq.Get(farSeq) || !seq.Get(10) {
		t.Fatal("restored SeqTable lost its bits")
	}
}
