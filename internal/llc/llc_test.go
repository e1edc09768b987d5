package llc

import (
	"testing"

	"dnc/internal/isa"
)

// tiny returns a small LLC: 2 banks, 4 sets/bank, 4 ways.
func tiny(dv bool, bfsPerSet int) *LLC {
	return New(Config{
		SizeBytes:    2 * 4 * 4 * isa.BlockBytes,
		Ways:         4,
		Banks:        2,
		AccessCycles: 18,
		DV:           dvIf(dv),
		BFsPerSet:    bfsPerSet,
	})
}

// dvIf is DVOn for true and DVOff for false.
func dvIf(on bool) DV {
	if on {
		return DVOn
	}
	return DVOff
}

// blockInSet returns the i-th distinct block mapping to (bank, set).
func blockInSet(c *LLC, bank, set, i int) isa.BlockID {
	return isa.BlockID(bank + c.banks*(set+c.setsPer*i))
}

func TestAccessHitMiss(t *testing.T) {
	c := tiny(false, 0)
	b := blockInSet(c, 0, 0, 0)
	if c.Access(b, true) {
		t.Fatal("hit in empty LLC")
	}
	c.Insert(b, true)
	if !c.Access(b, true) {
		t.Fatal("miss after insert")
	}
	s := c.Stats()
	if s.InstAccesses != 2 || s.InstHits != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny(false, 0)
	blocks := make([]isa.BlockID, 5)
	for i := range blocks {
		blocks[i] = blockInSet(c, 0, 0, i)
	}
	for _, b := range blocks[:4] {
		c.Insert(b, false)
	}
	c.Access(blocks[0], false) // protect 0
	c.Insert(blocks[4], false) // evicts blocks[1]
	if !c.Contains(blocks[0]) || c.Contains(blocks[1]) {
		t.Fatal("LRU eviction wrong")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
}

func TestDVTransitionOnInstInsert(t *testing.T) {
	c := tiny(true, 21)
	// Fill a set with data blocks.
	for i := 0; i < 4; i++ {
		c.Insert(blockInSet(c, 0, 1, i), false)
	}
	if c.BFHolderSets() != 0 {
		t.Fatal("BF holder before any instruction block")
	}
	// First instruction block converts the LRU way to BF-holder: one data
	// block is displaced for the holder and another way is the victim for
	// the fill itself.
	inst := blockInSet(c, 0, 1, 10)
	c.Insert(inst, true)
	if c.BFHolderSets() != 1 {
		t.Fatal("no BF holder after instruction insert")
	}
	// Effective capacity for blocks in that set is now 3.
	resident := 0
	for i := 0; i < 4; i++ {
		if c.Contains(blockInSet(c, 0, 1, i)) {
			resident++
		}
	}
	if resident != 2 { // 4 - holder - fill victim
		t.Fatalf("resident data blocks = %d, want 2", resident)
	}
	if !c.Contains(inst) {
		t.Fatal("instruction block missing")
	}
}

func TestDVReleaseWhenLastInstLeaves(t *testing.T) {
	c := tiny(true, 21)
	inst := blockInSet(c, 0, 2, 0)
	c.Insert(inst, true)
	if c.BFHolderSets() != 1 {
		t.Fatal("holder not pinned")
	}
	// Evict the instruction block by filling the set with data blocks
	// (effective 3 ways while pinned).
	for i := 1; i <= 3; i++ {
		c.Insert(blockInSet(c, 0, 2, i), false)
	}
	if c.Contains(inst) {
		t.Fatal("instruction block should have been evicted")
	}
	if c.BFHolderSets() != 0 {
		t.Fatal("holder not released after last instruction block left")
	}
}

func TestStoreLoadBF(t *testing.T) {
	c := tiny(true, 21)
	b := blockInSet(c, 1, 0, 0)
	c.Insert(b, true)
	var bf isa.BF
	bf.Add(12)
	bf.Add(40)
	if !c.StoreBF(b, bf) {
		t.Fatal("StoreBF failed for resident instruction block")
	}
	got, ok := c.LoadBF(b)
	if !ok || got != bf {
		t.Fatalf("LoadBF = %+v, %v", got, ok)
	}
	// Update in place.
	bf.Add(60)
	if !c.StoreBF(b, bf) {
		t.Fatal("BF update failed")
	}
	got, _ = c.LoadBF(b)
	if got.Count != 3 {
		t.Fatalf("updated BF = %+v", got)
	}
}

func TestStoreBFFailsWithoutResidency(t *testing.T) {
	c := tiny(true, 21)
	other := blockInSet(c, 1, 1, 0)
	c.Insert(other, true) // pin holder in this set
	absent := blockInSet(c, 1, 1, 5)
	if c.StoreBF(absent, isa.BF{}) {
		t.Fatal("StoreBF succeeded for non-resident block")
	}
	if c.Stats().BFStoreFails == 0 {
		t.Fatal("store failure not counted")
	}
}

func TestBFCapacityPerSet(t *testing.T) {
	c := tiny(true, 1) // only one BF per set
	b0 := blockInSet(c, 0, 3, 0)
	b1 := blockInSet(c, 0, 3, 1)
	c.Insert(b0, true)
	c.Insert(b1, true)
	if !c.StoreBF(b0, isa.BF{Count: 1}) {
		t.Fatal("first BF store failed")
	}
	if c.StoreBF(b1, isa.BF{Count: 1}) {
		t.Fatal("second BF store exceeded capacity")
	}
}

func TestBFDroppedWithEvictedBlock(t *testing.T) {
	c := tiny(true, 21)
	b := blockInSet(c, 0, 0, 0)
	c.Insert(b, true)
	c.StoreBF(b, isa.BF{Count: 2})
	// Force b out (3 effective ways while pinned).
	for i := 1; i <= 3; i++ {
		c.Insert(blockInSet(c, 0, 0, i), true)
	}
	if c.Contains(b) {
		t.Fatal("b still resident")
	}
	if _, ok := c.LoadBF(b); ok {
		t.Fatal("BF survived its block's eviction")
	}
}

func TestNonDVStoreBFAlwaysFails(t *testing.T) {
	c := tiny(false, 21)
	b := blockInSet(c, 0, 0, 0)
	c.Insert(b, true)
	if c.StoreBF(b, isa.BF{Count: 1}) {
		t.Fatal("StoreBF succeeded with DV disabled")
	}
}

func TestBankMapping(t *testing.T) {
	c := tiny(false, 0)
	if c.BankOf(0) == c.BankOf(1) {
		t.Fatal("consecutive blocks map to the same bank")
	}
	// Default config sanity.
	d := New(DefaultConfig())
	if d.Config().Banks != 16 || d.AccessCycles() != 18 {
		t.Fatalf("default config wrong: %+v", d.Config())
	}
}

func TestBankDelay(t *testing.T) {
	c := New(Config{
		SizeBytes:         2 * 4 * 4 * isa.BlockBytes,
		Ways:              4,
		Banks:             2,
		AccessCycles:      18,
		BankServiceCycles: 8,
	})
	// Within one 64-cycle window, 8 accesses fill the bank's capacity; the
	// ninth queues.
	var d uint64
	for i := 0; i < 9; i++ {
		d = c.BankDelay(0, 100)
	}
	if d == 0 {
		t.Fatal("over-subscribed bank did not delay")
	}
	if c.QueuedCycles() == 0 {
		t.Fatal("queueing not counted")
	}
	// A different bank is independent.
	if c.BankDelay(1, 100) != 0 {
		t.Fatal("other bank delayed")
	}
	// A new window clears the occupancy.
	if c.BankDelay(0, 100+128) != 0 {
		t.Fatal("new window still congested")
	}
	// A zero BankServiceCycles takes its default like every other zero
	// field, so the LLC left without one queues exactly as this one does.
	z := tiny(false, 0)
	for i := 0; i < 9; i++ {
		d = z.BankDelay(0, 100)
	}
	if z.Config().BankServiceCycles != 8 || d != 8 || z.QueuedCycles() != 8 {
		t.Fatalf("zero BankServiceCycles: service %d, ninth access delayed %d, queued %d; want 8 each",
			z.Config().BankServiceCycles, d, z.QueuedCycles())
	}
}

func TestInsertResidentPromotes(t *testing.T) {
	c := tiny(false, 0)
	b0 := blockInSet(c, 0, 0, 0)
	c.Insert(b0, false)
	for i := 1; i < 4; i++ {
		c.Insert(blockInSet(c, 0, 0, i), false)
	}
	c.Insert(b0, true) // re-insert marks instruction and promotes
	c.Insert(blockInSet(c, 0, 0, 9), false)
	if !c.Contains(b0) {
		t.Fatal("re-inserted block evicted")
	}
	if c.InstBlocks() != 1 {
		t.Fatalf("InstBlocks = %d, want 1", c.InstBlocks())
	}
}

// TestBankIndexByMask pins the mask-and-shift index against the
// modulo-and-divide definition it replaces (bank = block mod banks, set
// within the bank = block / banks mod sets per bank), and checks that New
// refuses a bank count that is not a power of two.
func TestBankIndexByMask(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), {SizeBytes: 4 * 16 * 8 * isa.BlockBytes, Ways: 8, Banks: 4}, {SizeBytes: 2 * 4 * 4 * isa.BlockBytes, Ways: 4, Banks: 2}} {
		c := New(cfg)
		banks, setsPer := uint64(c.banks), uint64(c.setsPer)
		for b := isa.BlockID(0); b < 1<<16; b += 7 {
			bank := uint64(b) % banks
			if got := c.BankOf(b); got != int(bank) {
				t.Fatalf("%d banks: BankOf(%d) = %d, want %d", banks, b, got, bank)
			}
			if got, want := c.setOf(b), int(bank*setsPer+uint64(b)/banks%setsPer); got != want {
				t.Fatalf("%d banks: setOf(%d) = %d, want %d", banks, b, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted 3 banks")
		}
	}()
	New(Config{SizeBytes: 3 * 4 * 4 * isa.BlockBytes, Ways: 4, Banks: 3})
}
