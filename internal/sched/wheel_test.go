package sched

import (
	"math/rand"
	"sort"
	"testing"

	"dnc/internal/checkpoint"
	"dnc/internal/checkpoint/checkpointtest"
)

// refModel is the naive reference: a map of pending deadlines, advanced by
// sorting. Everything the wheel does must match it exactly.
type refModel struct {
	now     uint64
	pending map[int]uint64
}

func newRefModel() *refModel { return &refModel{pending: map[int]uint64{}} }

func (r *refModel) schedule(id int, d uint64) { r.pending[id] = d }
func (r *refModel) cancel(id int)             { delete(r.pending, id) }

func (r *refModel) next() (uint64, bool) {
	best, have := uint64(0), false
	for _, d := range r.pending {
		if !have || d < best {
			best, have = d, true
		}
	}
	return best, have
}

func (r *refModel) advanceTo(to uint64) []int {
	type ent struct {
		id int
		d  uint64
	}
	var due []ent
	for id, d := range r.pending {
		if d <= to {
			due = append(due, ent{id, d})
		}
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].d != due[j].d {
			return due[i].d < due[j].d
		}
		return due[i].id < due[j].id
	})
	out := make([]int, len(due))
	for i, e := range due {
		out[i] = e.id
		delete(r.pending, e.id)
	}
	r.now = to
	return out
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkAgainstRef drives both the wheel and the reference with the same
// random operation stream and compares every observable.
func checkAgainstRef(t *testing.T, seed int64, ids, ops int, maxStep, maxAhead uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := NewWheel(ids)
	ref := newRefModel()
	for op := 0; op < ops; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // schedule (reschedule allowed)
			id := rng.Intn(ids)
			d := w.Now() + rng.Uint64()%maxAhead
			w.Schedule(id, d)
			ref.schedule(id, d)
		case 4: // cancel
			id := rng.Intn(ids)
			w.Cancel(id)
			ref.cancel(id)
		default: // advance
			to := w.Now() + rng.Uint64()%maxStep
			got := w.AdvanceTo(to)
			want := ref.advanceTo(to)
			if !equalIDs(got, want) {
				t.Fatalf("seed %d op %d: AdvanceTo(%d) = %v, reference %v", seed, op, to, got, want)
			}
		}
		if w.Len() != len(ref.pending) {
			t.Fatalf("seed %d op %d: Len = %d, reference %d", seed, op, w.Len(), len(ref.pending))
		}
		gd, gok := w.Next()
		wd, wok := ref.next()
		if gok != wok || (gok && gd != wd) {
			t.Fatalf("seed %d op %d: Next = (%d,%v), reference (%d,%v)", seed, op, gd, gok, wd, wok)
		}
		for id := 0; id < ids; id++ {
			gd, gok := w.Scheduled(id)
			wd, wok := ref.pending[id]
			if gok != wok || (gok && gd != wd) {
				t.Fatalf("seed %d op %d: Scheduled(%d) = (%d,%v), reference (%d,%v)",
					seed, op, id, gd, gok, wd, wok)
			}
		}
	}
}

// TestWheelMatchesReference drives random op sequences over several regimes:
// deadlines near the cursor (level 0 only), spanning all levels, and
// advances that leap far past everything pending.
func TestWheelMatchesReference(t *testing.T) {
	regimes := []struct {
		name              string
		maxStep, maxAhead uint64
	}{
		{"near", 8, 32},
		{"mid", 300, 5_000},
		{"levels", 100_000, 1 << 20},
		{"leap", 1 << 22, 1 << 23},
	}
	for _, rg := range regimes {
		rg := rg
		t.Run(rg.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				checkAgainstRef(t, seed, 16, 800, rg.maxStep, rg.maxAhead)
			}
		})
	}
}

// TestWheelDueOrder pins the (deadline, id) contract directly: ids scheduled
// out of order with colliding and distinct deadlines fire sorted.
func TestWheelDueOrder(t *testing.T) {
	w := NewWheel(8)
	w.Schedule(5, 100)
	w.Schedule(2, 100)
	w.Schedule(7, 40)
	w.Schedule(0, 4000) // level 1
	w.Schedule(3, 100)
	got := w.AdvanceTo(5000)
	want := []int{7, 2, 3, 5, 0}
	if !equalIDs(got, want) {
		t.Fatalf("AdvanceTo order = %v, want %v", got, want)
	}
}

// TestWheelReschedule: rescheduling moves the single pending deadline.
func TestWheelReschedule(t *testing.T) {
	w := NewWheel(4)
	w.Schedule(1, 50)
	w.Schedule(1, 9000)
	if got := w.AdvanceTo(100); len(got) != 0 {
		t.Fatalf("fired %v before the rescheduled deadline", got)
	}
	if got := w.AdvanceTo(9000); !equalIDs(got, []int{1}) {
		t.Fatalf("AdvanceTo(9000) = %v, want [1]", got)
	}
	if w.Len() != 0 {
		t.Fatalf("Len = %d after firing the only entry", w.Len())
	}
}

// TestWheelDueNow: a deadline equal to the cursor fires on the next advance
// (including a zero-length advance).
func TestWheelDueNow(t *testing.T) {
	w := NewWheel(2)
	w.AdvanceTo(77)
	w.Schedule(0, 77)
	if got := w.AdvanceTo(77); !equalIDs(got, []int{0}) {
		t.Fatalf("AdvanceTo(now) = %v, want [0]", got)
	}
}

// TestWheelZeroAlloc: steady-state schedule/advance cycles must not
// allocate — the engine runs this on every machine cycle.
func TestWheelZeroAlloc(t *testing.T) {
	w := NewWheel(16)
	for i := 0; i < 16; i++ {
		w.Schedule(i, uint64(10+i*7))
	}
	w.AdvanceTo(200) // warm the scratch buffer
	allocs := testing.AllocsPerRun(1000, func() {
		base := w.Now()
		for i := 0; i < 16; i++ {
			w.Schedule(i, base+uint64(3+i*5))
		}
		w.Cancel(3)
		w.AdvanceTo(base + 100)
	})
	if allocs != 0 {
		t.Fatalf("steady-state wheel ops allocate %.1f times per run", allocs)
	}
}

// TestWheelSnapshotRestore: a snapshot taken mid-sequence restores into a
// fresh wheel that then fires identically to the original.
func TestWheelSnapshotRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := NewWheel(12)
	for op := 0; op < 200; op++ {
		switch rng.Intn(3) {
		case 0:
			w.Schedule(rng.Intn(12), w.Now()+rng.Uint64()%100_000)
		case 1:
			w.Cancel(rng.Intn(12))
		default:
			w.AdvanceTo(w.Now() + rng.Uint64()%5_000)
		}
	}
	w2 := NewWheel(12)
	if err := checkpointtest.Load(checkpointtest.Save(w.State), w2.State); err != nil {
		t.Fatal(err)
	}
	if w2.Now() != w.Now() || w2.Len() != w.Len() {
		t.Fatalf("restored (now=%d len=%d), original (now=%d len=%d)",
			w2.Now(), w2.Len(), w.Now(), w.Len())
	}
	for w.Len() > 0 {
		to := w.Now() + 1000
		a, b := w.AdvanceTo(to), w2.AdvanceTo(to)
		if !equalIDs(a, b) {
			t.Fatalf("post-restore divergence at %d: %v vs %v", to, a, b)
		}
		// AdvanceTo reuses one scratch buffer per wheel, so compare before
		// the next call, then continue (done by loop structure).
	}
}

// TestWheelRestoreRejectsCorruptSnapshots: structural validation failures
// must come back as errors, never as a corrupted wheel.
func TestWheelRestoreRejectsCorruptSnapshots(t *testing.T) {
	mk := func(build func(e *checkpoint.Encoder)) error {
		e := checkpoint.NewEncoder()
		build(e)
		return checkpointtest.Load(e.Marshal(), NewWheel(4).State)
	}
	cases := map[string]func(e *checkpoint.Encoder){
		"wrong universe": func(e *checkpoint.Encoder) {
			e.Begin("sched.wheel")
			e.U64(0)
			e.Int(8)
			e.Int(0)
			e.End()
		},
		"id out of range": func(e *checkpoint.Encoder) {
			e.Begin("sched.wheel")
			e.U64(0)
			e.Int(4)
			e.Int(1)
			e.Int(9)
			e.U64(5)
			e.End()
		},
		"deadline behind cursor": func(e *checkpoint.Encoder) {
			e.Begin("sched.wheel")
			e.U64(100)
			e.Int(4)
			e.Int(1)
			e.Int(0)
			e.U64(50)
			e.End()
		},
		"duplicate id": func(e *checkpoint.Encoder) {
			e.Begin("sched.wheel")
			e.U64(0)
			e.Int(4)
			e.Int(2)
			e.Int(1)
			e.U64(5)
			e.Int(1)
			e.U64(9)
			e.End()
		},
	}
	for name, build := range cases {
		if err := mk(build); err == nil {
			t.Errorf("%s: Restore accepted a corrupt snapshot", name)
		}
	}
}

// FuzzWheelAdvance interprets fuzz bytes as an op stream against both the
// wheel and the reference model; any divergence or panic is a finding.
func FuzzWheelAdvance(f *testing.F) {
	f.Add([]byte{0x01, 0x10, 0x80, 0x02, 0xFF})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		const ids = 8
		w := NewWheel(ids)
		ref := newRefModel()
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], uint64(data[i+1])
			switch op % 3 {
			case 0: // schedule: spread deadlines across levels via squaring
				id := int(op/3) % ids
				d := w.Now() + arg*arg*16
				w.Schedule(id, d)
				ref.schedule(id, d)
			case 1:
				id := int(op/3) % ids
				w.Cancel(id)
				ref.cancel(id)
			default:
				to := w.Now() + arg*arg*8
				got := w.AdvanceTo(to)
				want := ref.advanceTo(to)
				if !equalIDs(got, want) {
					t.Fatalf("op %d: AdvanceTo(%d) = %v, reference %v", i, to, got, want)
				}
			}
			if w.Len() != len(ref.pending) {
				t.Fatalf("op %d: Len %d vs reference %d", i, w.Len(), len(ref.pending))
			}
			gd, gok := w.Next()
			wd, wok := ref.next()
			if gok != wok || (gok && gd != wd) {
				t.Fatalf("op %d: Next (%d,%v) vs reference (%d,%v)", i, gd, gok, wd, wok)
			}
		}
	})
}
