package prefetch

import (
	"slices"
	"testing"

	"dnc/internal/cache"
	"dnc/internal/isa"
)

// fakeEnv is a scriptable prefetch.Env for unit tests.
type fakeEnv struct {
	cycle    uint64
	resident map[isa.BlockID]*cache.Line
	inflight map[isa.BlockID]bool
	issued   []isa.BlockID
	image    *isa.Image
	predict  map[isa.Addr]bool

	lookups uint64
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{
		resident: make(map[isa.BlockID]*cache.Line),
		inflight: make(map[isa.BlockID]bool),
		predict:  make(map[isa.Addr]bool),
	}
}

func (e *fakeEnv) Cycle() uint64 { return e.cycle }

func (e *fakeEnv) L1iContains(b isa.BlockID) bool {
	e.lookups++
	_, ok := e.resident[b]
	return ok
}

func (e *fakeEnv) L1iLine(b isa.BlockID) *cache.Line { return e.resident[b] }

func (e *fakeEnv) InFlight(b isa.BlockID) bool { return e.inflight[b] }

func (e *fakeEnv) IssuePrefetch(b isa.BlockID) bool {
	if _, ok := e.resident[b]; ok {
		return false
	}
	if e.inflight[b] {
		return false
	}
	e.inflight[b] = true
	e.issued = append(e.issued, b)
	return true
}

func (e *fakeEnv) Predecode(b isa.BlockID) []isa.Branch {
	if e.image == nil {
		return nil
	}
	return isa.PredecodeBlock(e.image, b)
}

func (e *fakeEnv) DecodeBranchAt(b isa.BlockID, off uint8) (isa.Branch, bool) {
	if e.image == nil {
		return isa.Branch{}, false
	}
	return isa.DecodeBranchAt(e.image, b, off)
}

func (e *fakeEnv) PredictTaken(pc isa.Addr) bool { return e.predict[pc] }

// install makes a block resident and returns its line.
func (e *fakeEnv) install(b isa.BlockID) *cache.Line {
	l := &cache.Line{}
	e.resident[b] = l
	return l
}

// fill applies an in-flight block as arrived.
func (e *fakeEnv) fill(d Design, b isa.BlockID, prefetch bool) {
	delete(e.inflight, b)
	l := e.install(b)
	if prefetch {
		l.Flags |= cache.FlagPrefetched
	}
	d.OnFill(b, prefetch)
}

func issuedSet(blocks []isa.BlockID) map[isa.BlockID]bool {
	m := map[isa.BlockID]bool{}
	for _, b := range blocks {
		m[b] = true
	}
	return m
}

func TestNXLPrefetchesNextLines(t *testing.T) {
	env := newFakeEnv()
	d := NewNXL(4, 2048)
	d.Bind(env)
	env.install(101) // next block already resident; must be skipped
	d.OnDemand(100, true, [2]isa.Addr{})
	got := issuedSet(env.issued)
	if got[101] {
		t.Error("prefetched a resident block")
	}
	for _, b := range []isa.BlockID{102, 103, 104} {
		if !got[b] {
			t.Errorf("block %d not prefetched", b)
		}
	}
	if len(env.issued) != 3 {
		t.Errorf("issued %d prefetches, want 3", len(env.issued))
	}
}

func TestNXLNames(t *testing.T) {
	if NewNXL(1, 64).Name() != "NL" || NewNXL(8, 64).Name() != "N8L" {
		t.Error("NXL names wrong")
	}
}

func TestSeqTableDefaultsToPrefetch(t *testing.T) {
	tab := NewSeqTable(1024)
	if !tab.Get(5) {
		t.Fatal("entries must initialize set")
	}
	tab.Reset(5)
	if tab.Get(5) {
		t.Fatal("reset failed")
	}
	tab.Set(5)
	if !tab.Get(5) {
		t.Fatal("set failed")
	}
}

func TestSeqTableAliasing(t *testing.T) {
	tab := NewSeqTable(1024)
	tab.Reset(7)
	if tab.Get(7 + 1024) {
		t.Fatal("aliased entry should share the bit")
	}
}

func TestSeqTableNibble(t *testing.T) {
	tab := NewSeqTable(1024)
	tab.Reset(11)
	tab.Reset(13)
	// For block 10, subsequents 11..14 -> bits 0..3.
	want := uint8(0b1010) // 11 reset (bit0=0), 12 set, 13 reset, 14 set
	if got := tab.Nibble(10); got != want {
		t.Fatalf("nibble = %04b, want %04b", got, want)
	}
}

func TestSN4LSelectivity(t *testing.T) {
	env := newFakeEnv()
	d := NewSN4L(1024, 2048)
	d.Bind(env)
	// Mark block 102 useless.
	d.seq.Reset(102)
	d.OnDemand(100, false, [2]isa.Addr{})
	got := issuedSet(env.issued)
	if got[102] {
		t.Error("prefetched a block marked useless")
	}
	if !got[101] || !got[103] || !got[104] {
		t.Errorf("useful blocks not prefetched: %v", env.issued)
	}
}

func TestSN4LMissSetsEntry(t *testing.T) {
	env := newFakeEnv()
	d := NewSN4L(1024, 2048)
	d.Bind(env)
	d.seq.Reset(100)
	d.OnDemand(100, false, [2]isa.Addr{})
	if !d.seq.Get(100) {
		t.Fatal("miss did not set the block's SeqTable entry")
	}
}

func TestSN4LUsefulAndUselessVerdicts(t *testing.T) {
	env := newFakeEnv()
	d := NewSN4L(1024, 2048)
	d.Bind(env)

	// Useless: prefetched block evicted untouched.
	d.OnEvict(cache.Evicted{Block: 200, Flags: cache.FlagPrefetched})
	if d.seq.Get(200) {
		t.Fatal("evicted-unused prefetch did not reset entry")
	}

	// Useful: demand hit on a prefetched line sets the entry and clears the
	// flag.
	l := env.install(200)
	l.Flags |= cache.FlagPrefetched
	d.OnDemand(200, true, [2]isa.Addr{})
	if !d.seq.Get(200) {
		t.Fatal("demanded prefetch did not set entry")
	}
	if l.Flags&cache.FlagPrefetched != 0 {
		t.Fatal("prefetch flag not cleared on demand")
	}

	// Eviction of a non-prefetched line leaves the entry alone.
	d.OnEvict(cache.Evicted{Block: 200})
	if !d.seq.Get(200) {
		t.Fatal("eviction of demanded line reset entry")
	}
}

func TestSN4LLocalStatusOnFill(t *testing.T) {
	env := newFakeEnv()
	d := NewSN4L(1024, 2048)
	d.Bind(env)
	d.seq.Reset(101)
	env.install(100)
	d.OnFill(100, false)
	if env.resident[100].Aux&1 != 0 {
		t.Fatal("local status bit for a useless subsequent block should be 0")
	}
	if env.resident[100].Aux&0b1110 != 0b1110 {
		t.Fatalf("local status = %04b, want upper bits set", env.resident[100].Aux)
	}
}

func TestRefreshLocalPropagates(t *testing.T) {
	env := newFakeEnv()
	tab := NewSeqTable(1024)
	l := env.install(100) // holds nibble for 101..104
	tab.Reset(102)
	l.Aux = tab.Nibble(100)
	if l.Aux&0b0010 != 0 {
		t.Fatal("setup wrong")
	}
	tab.Set(102)
	tab.refreshLocal(env, 102)
	if l.Aux&0b0010 == 0 {
		t.Fatal("refreshLocal did not set the predecessor's bit")
	}
	tab.Reset(102)
	tab.refreshLocal(env, 102)
	if l.Aux&0b0010 != 0 {
		t.Fatal("refreshLocal did not clear the predecessor's bit")
	}
}

func TestDisTableRecordLookup(t *testing.T) {
	tab := NewDisTable(1024, 4)
	if _, ok := tab.Lookup(55); ok {
		t.Fatal("hit in empty table")
	}
	tab.Record(55, 12)
	off, ok := tab.Lookup(55)
	if !ok || off != 12 {
		t.Fatalf("lookup = %d, %v", off, ok)
	}
}

func TestDisTablePartialTagFiltersAliases(t *testing.T) {
	tagged := NewDisTable(1024, 4)
	tagged.Record(55, 12)
	alias := isa.BlockID(55 + 1024) // same index, different tag
	if _, ok := tagged.Lookup(alias); ok {
		t.Fatal("partial tag failed to filter an alias")
	}
	if tagged.Conflicts == 0 {
		t.Fatal("conflict not counted")
	}

	tagless := NewDisTable(1024, 0)
	tagless.Record(55, 12)
	if _, ok := tagless.Lookup(alias); !ok {
		t.Fatal("tagless table must alias (the Figure 12 overprediction)")
	}
}

// buildBranchImage lays out a fixed-mode block where slot 3 is a cond branch
// to target.
func buildBranchImage(base isa.Addr, target isa.Addr) *isa.Image {
	var code []byte
	for i := 0; i < 16; i++ {
		inst := isa.Inst{PC: base + isa.Addr(i*4), Size: 4, Kind: isa.KindALU}
		if i == 3 {
			inst.Kind = isa.KindCondBranch
			inst.Target = target
		}
		code = isa.AppendInst(code, isa.Fixed, inst)
	}
	return isa.NewImage(isa.Fixed, base, code)
}

func TestDisReplayPrefetchesTarget(t *testing.T) {
	env := newFakeEnv()
	base := isa.Addr(0x10000)
	target := isa.Addr(0x20000)
	env.image = buildBranchImage(base, target)
	d := NewDis(1024, 4, 2048)
	d.Bind(env)

	blk := isa.BlockOf(base)
	d.tab.Record(blk, 12) // byte offset of slot 3
	env.install(blk)
	d.OnDemand(blk, true, [2]isa.Addr{})
	if !issuedSet(env.issued)[isa.BlockOf(target)] {
		t.Fatalf("target block not prefetched: %v", env.issued)
	}
}

func TestDisReplayIgnoresStaleOffset(t *testing.T) {
	env := newFakeEnv()
	base := isa.Addr(0x10000)
	env.image = buildBranchImage(base, 0x20000)
	d := NewDis(1024, 4, 2048)
	d.Bind(env)

	blk := isa.BlockOf(base)
	d.tab.Record(blk, 0) // offset 0 is an ALU op
	env.install(blk)
	d.OnDemand(blk, true, [2]isa.Addr{})
	if len(env.issued) != 0 {
		t.Fatalf("stale offset caused prefetches: %v", env.issued)
	}
}

func TestDisRecordsFromLastTwoInstructions(t *testing.T) {
	env := newFakeEnv()
	base := isa.Addr(0x10000)
	env.image = buildBranchImage(base, 0x20000)
	d := NewDis(1024, 4, 2048)
	d.Bind(env)

	branchPC := base + 12
	// Miss on a far block; the branch is the second-to-last instruction
	// (delay-slot style).
	d.OnDemand(isa.BlockOf(0x20000), false, [2]isa.Addr{branchPC, base + 16})
	off, ok := d.tab.Lookup(isa.BlockOf(base))
	if !ok || off != 12 {
		t.Fatalf("recorded offset = %d, %v; want 12", off, ok)
	}
}

func TestDisDeferredReplayOnFill(t *testing.T) {
	env := newFakeEnv()
	base := isa.Addr(0x10000)
	target := isa.Addr(0x20000)
	env.image = buildBranchImage(base, target)
	d := NewDis(1024, 4, 2048)
	d.Bind(env)

	blk := isa.BlockOf(base)
	d.tab.Record(blk, 12)
	// Miss: replay must wait for the fill.
	d.OnDemand(blk, false, [2]isa.Addr{})
	if issuedSet(env.issued)[isa.BlockOf(target)] {
		t.Fatal("replayed before the block arrived")
	}
	env.fill(d, blk, false)
	if !issuedSet(env.issued)[isa.BlockOf(target)] {
		t.Fatal("deferred replay did not fire on fill")
	}
}

func TestRLU(t *testing.T) {
	r := NewRLU(2)
	if r.Contains(1) {
		t.Fatal("empty RLU contains")
	}
	r.Insert(1)
	r.Insert(2)
	if !r.Contains(1) || !r.Contains(2) {
		t.Fatal("inserted blocks missing")
	}
	r.Insert(3) // evicts 1 (FIFO)
	if r.Contains(1) || !r.Contains(3) {
		t.Fatal("FIFO replacement wrong")
	}
	// Duplicate insert must not evict.
	r.Insert(3)
	if !r.Contains(2) {
		t.Fatal("duplicate insert displaced an entry")
	}
	// Zero-entry RLU never contains.
	z := NewRLU(0)
	z.Insert(9)
	if z.Contains(9) {
		t.Fatal("zero-entry RLU stored a block")
	}
}

func TestBoundedQueue(t *testing.T) {
	q := newBoundedQueue(2)
	q.push(qItem{block: 1})
	q.push(qItem{block: 2})
	q.push(qItem{block: 3})
	if q.Drops != 1 {
		t.Fatalf("drops = %d", q.Drops)
	}
	it, ok := q.pop()
	if !ok || it.block != 1 {
		t.Fatalf("pop = %+v", it)
	}
	if it, ok := q.pop(); !ok || it.block != 2 {
		t.Fatalf("second pop = %+v", it)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop from an empty queue")
	}
}

func TestProactiveChainsThroughDiscontinuity(t *testing.T) {
	env := newFakeEnv()
	base := isa.Addr(0x10000)
	target := isa.Addr(0x20000)
	env.image = buildBranchImage(base, target)

	cfg := DefaultProactiveConfig()
	d := NewProactive(cfg)
	d.Bind(env)

	blk := isa.BlockOf(base)
	d.dis.Record(blk, 12)
	env.install(blk)
	d.OnFill(blk, false) // latch the local prefetch-status nibble

	// Demand access to blk triggers: SN4L candidates blk+1..blk+4, and Dis
	// replay of blk -> target block; the target chains SN1L -> target+1.
	d.OnDemand(blk, true, [2]isa.Addr{})
	for i := 0; i < 12; i++ {
		env.cycle++
		d.Tick()
	}
	got := issuedSet(env.issued)
	for _, b := range []isa.BlockID{blk + 1, blk + 2, blk + 3, blk + 4} {
		if !got[b] {
			t.Errorf("sequential candidate %d not prefetched", b)
		}
	}
	tb := isa.BlockOf(target)
	if !got[tb] {
		t.Errorf("discontinuity target %d not prefetched", tb)
	}
}

func TestProactiveSN1LBeyondDiscontinuity(t *testing.T) {
	env := newFakeEnv()
	base := isa.Addr(0x10000)
	target := isa.Addr(0x20000)
	env.image = buildBranchImage(base, target)

	d := NewProactive(DefaultProactiveConfig())
	d.Bind(env)
	blk := isa.BlockOf(base)
	tb := isa.BlockOf(target)
	d.dis.Record(blk, 12)
	env.install(blk)
	d.OnFill(blk, false)

	d.OnDemand(blk, true, [2]isa.Addr{})
	for i := 0; i < 20; i++ {
		env.cycle++
		d.Tick()
		// Deliver fills promptly so chains keep walking.
		for _, b := range slices.Clone(env.issued) {
			if env.inflight[b] {
				env.fill(d, b, true)
			}
		}
	}
	got := issuedSet(env.issued)
	if !got[tb+1] {
		t.Errorf("SN1L did not prefetch the discontinuity region's next line (%d): %v", tb+1, env.issued)
	}
	// Sequential candidates do not chain deeper sequentially: blk+5 must
	// not be prefetched (SN4L reach is 4 from the demanded block).
	if got[blk+5] {
		t.Errorf("sequential chain exceeded SN4L reach: %v", env.issued)
	}
}

func TestProactiveBTBPrefetchFillsBuffer(t *testing.T) {
	env := newFakeEnv()
	base := isa.Addr(0x10000)
	env.image = buildBranchImage(base, 0x20000)

	cfg := DefaultProactiveConfig()
	cfg.WithBTBPrefetch = true
	d := NewProactive(cfg)
	d.Bind(env)

	blk := isa.BlockOf(base)
	env.install(blk)
	d.OnDemand(blk, true, [2]isa.Addr{})
	for i := 0; i < 4; i++ {
		env.cycle++
		d.Tick()
	}
	if d.PBFills == 0 {
		t.Fatal("pre-decoder never filled the BTB prefetch buffer")
	}
	// The branch in blk must now be promotable on a BTB miss.
	if _, hit := d.BTBLookup(base+12, isa.KindCondBranch); !hit {
		t.Fatal("prefetch buffer promotion failed")
	}
	if d.PBPromotions == 0 {
		t.Fatal("promotion not counted")
	}
}

func TestConvBTBPromotionInsertsWholeBlock(t *testing.T) {
	c := NewConvBTB(2048, 4)
	c.PB = nil
	if _, ok := c.BTBLookup(0x100, isa.KindJump); ok {
		t.Fatal("hit in empty BTB")
	}
	c.BTBCommit(0x100, isa.KindJump, 0x900, true)
	if target, ok := c.BTBLookup(0x100, isa.KindJump); !ok || target != 0x900 {
		t.Fatalf("lookup = %#x, %v", target, ok)
	}
}

func TestDiscontinuityDesign(t *testing.T) {
	env := newFakeEnv()
	d := NewDiscontinuity(1024, 8, 2048)
	d.Bind(env)

	// Record: access block 10, then a discontinuity miss at 50.
	d.OnDemand(10, true, [2]isa.Addr{})
	d.OnDemand(50, false, [2]isa.Addr{})
	if d.Recorded != 1 {
		t.Fatalf("recorded = %d", d.Recorded)
	}
	// Sequential misses must not record.
	d.OnDemand(51, false, [2]isa.Addr{})
	if d.Recorded != 1 {
		t.Fatalf("sequential miss recorded a discontinuity")
	}
	// Replay: next access to block 10 prefetches 50.
	env.issued = nil
	d.OnDemand(10, true, [2]isa.Addr{})
	if !issuedSet(env.issued)[50] {
		t.Fatalf("discontinuity target not prefetched: %v", env.issued)
	}
}

func TestConfluenceStreamReplay(t *testing.T) {
	env := newFakeEnv()
	d := NewConfluence(DefaultConfluenceConfig())
	d.Bind(env)

	// First pass: record a miss sequence.
	seq := []isa.BlockID{100, 250, 71, 300, 90, 401}
	for _, b := range seq {
		d.OnDemand(b, false, [2]isa.Addr{})
	}
	// Second pass: the repeat miss of 100 should replay the stream.
	env.issued = nil
	d.OnDemand(100, false, [2]isa.Addr{})
	if d.StreamStarts == 0 {
		t.Fatal("stream did not start on a history hit")
	}
	got := issuedSet(env.issued)
	for _, b := range seq[1:] {
		if !got[b] {
			t.Errorf("stream did not prefetch %d: %v", b, env.issued)
		}
	}
}

func TestConfluenceRedirectKillsStream(t *testing.T) {
	env := newFakeEnv()
	d := NewConfluence(ConfluenceConfig{
		HistEntries: 1024, IndexEntries: 1024, BTBEntries: 1024, Lookahead: 2,
	})
	d.Bind(env)
	seq := []isa.BlockID{10, 20, 30, 40, 50, 60}
	for _, b := range seq {
		d.OnDemand(b, false, [2]isa.Addr{})
	}
	env.issued = nil
	d.OnDemand(10, false, [2]isa.Addr{}) // starts stream, lookahead 2
	n := len(env.issued)
	d.OnRedirect(0)
	d.OnDemand(20, true, [2]isa.Addr{}) // hit: would advance a live stream
	if len(env.issued) != n {
		t.Fatal("stream survived a redirect")
	}
}

func TestStorageBudgets(t *testing.T) {
	// Table II: the full design is ~7.6 KB; Shotgun ~6 KB over its BTB.
	full := NewProactive(func() ProactiveConfig {
		c := DefaultProactiveConfig()
		c.WithBTBPrefetch = true
		return c
	}())
	bits := full.StorageBits()
	if kb := float64(bits) / 8 / 1024; kb < 6 || kb > 9 {
		t.Errorf("SN4L+Dis+BTB storage = %.1f KB, want ~7.6 KB", kb)
	}

	shot := NewShotgun(DefaultShotgunDesignConfig())
	if kb := float64(shot.StorageBits()) / 8 / 1024; kb < 4 || kb > 12 {
		t.Errorf("Shotgun storage = %.1f KB, want ~6 KB", kb)
	}

	conf := NewConfluence(DefaultConfluenceConfig())
	if kb := float64(conf.StorageBits()) / 8 / 1024; kb < 100 {
		t.Errorf("Confluence storage = %.1f KB, want > 100 KB (the paper's 200+ KB class)", kb)
	}
}

// TestProactiveStorageCountsDefaultBuffer pins Table II's accounting of the
// BTB prefetch buffer: a WithBTBPrefetch config that leaves the buffer size
// zero builds the default 32-entry buffer, so it must count the same bits as
// the paper configuration that sets it explicitly.
func TestProactiveStorageCountsDefaultBuffer(t *testing.T) {
	explicit := DefaultProactiveConfig()
	explicit.WithBTBPrefetch = true
	implicit := explicit
	implicit.PBEntries, implicit.PBWays = 0, 0
	if got, want := NewProactive(implicit).StorageBits(), NewProactive(explicit).StorageBits(); got != want {
		t.Fatalf("default-sized BTB prefetch buffer: StorageBits = %d, want %d", got, want)
	}
}

func TestNXLTriggerPolicies(t *testing.T) {
	// NL-miss: hits must not trigger.
	env := newFakeEnv()
	miss := NewNXLTriggered(2, 2048, TriggerMiss)
	miss.Bind(env)
	env.install(100)
	miss.OnDemand(100, true, [2]isa.Addr{})
	if len(env.issued) != 0 {
		t.Fatalf("NL-miss fired on a hit: %v", env.issued)
	}
	miss.OnDemand(200, false, [2]isa.Addr{})
	if len(env.issued) != 2 {
		t.Fatalf("NL-miss did not fire on a miss: %v", env.issued)
	}
	if miss.Name() != "N2L-miss" {
		t.Fatalf("name = %q", miss.Name())
	}

	// NL-tagged: fires on misses and on hits to prefetched lines only.
	env = newFakeEnv()
	tagged := NewNXLTriggered(1, 2048, TriggerTagged)
	tagged.Bind(env)
	l := env.install(300)
	tagged.OnDemand(300, true, [2]isa.Addr{}) // plain hit: no fire
	if len(env.issued) != 0 {
		t.Fatalf("NL-tagged fired on an untagged hit: %v", env.issued)
	}
	l.Flags |= cache.FlagPrefetched
	tagged.OnDemand(300, true, [2]isa.Addr{})
	if len(env.issued) != 1 || env.issued[0] != 301 {
		t.Fatalf("NL-tagged did not fire on a tagged hit: %v", env.issued)
	}
	if tagged.Name() != "NL-tagged" {
		t.Fatalf("name = %q", tagged.Name())
	}
}

func TestRDIPRecordsAndReplays(t *testing.T) {
	env := newFakeEnv()
	d := NewRDIP(1024, 2048)
	d.Bind(env)

	call := isa.Inst{PC: 0x1000, Size: 4, Kind: isa.KindCall, Target: 0x9000}
	ret := isa.Inst{PC: 0x9004, Size: 4, Kind: isa.KindReturn}

	// Enter a context and record misses under it.
	d.OnRetire(call, true, 0x9000)
	d.OnDemand(500, false, [2]isa.Addr{})
	d.OnDemand(501, false, [2]isa.Addr{})
	if d.Recorded != 2 {
		t.Fatalf("recorded = %d", d.Recorded)
	}
	// Leave and re-enter the same context: the miss set replays.
	d.OnRetire(ret, true, 0x1004)
	env.issued = nil
	d.OnRetire(call, true, 0x9000)
	got := issuedSet(env.issued)
	if !got[500] || !got[501] {
		t.Fatalf("miss set not replayed: %v", env.issued)
	}
}

func TestRDIPSignatureDependsOnStack(t *testing.T) {
	env := newFakeEnv()
	d := NewRDIP(1024, 2048)
	d.Bind(env)
	callA := isa.Inst{PC: 0x1000, Size: 4, Kind: isa.KindCall, Target: 0x9000}
	callB := isa.Inst{PC: 0x2000, Size: 4, Kind: isa.KindCall, Target: 0x9000}

	d.OnRetire(callA, true, 0x9000)
	d.OnDemand(700, false, [2]isa.Addr{})
	d.OnRetire(isa.Inst{PC: 0x9004, Size: 4, Kind: isa.KindReturn}, true, 0x1004)

	// A different call site gives a different signature: no replay.
	env.issued = nil
	d.OnRetire(callB, true, 0x9000)
	if issuedSet(env.issued)[700] {
		t.Fatalf("different context replayed another context's misses")
	}
}

func TestPIFRegionCompaction(t *testing.T) {
	env := newFakeEnv()
	p := NewPIF(PIFConfig{HistRegions: 64, IndexEntries: 64, BTBEntries: 64, Lookahead: 2})
	p.Bind(env)
	// Retire instructions within one spatial region: no region logged yet.
	for _, b := range []isa.BlockID{100, 101, 102, 100} {
		p.OnRetire(isa.Inst{PC: isa.BlockBase(b), Size: 4, Kind: isa.KindALU}, false, 0)
	}
	if p.RegionsLogged != 0 {
		t.Fatalf("intra-region retires logged %d regions", p.RegionsLogged)
	}
	// Jumping far away closes the region.
	p.OnRetire(isa.Inst{PC: isa.BlockBase(500), Size: 4, Kind: isa.KindALU}, false, 0)
	if p.RegionsLogged != 1 {
		t.Fatalf("region not logged on spatial break: %d", p.RegionsLogged)
	}
}

func TestPIFStreamReplay(t *testing.T) {
	env := newFakeEnv()
	p := NewPIF(PIFConfig{HistRegions: 64, IndexEntries: 64, BTBEntries: 64, Lookahead: 4})
	p.Bind(env)
	// Record a stream of three regions: 100*, 500*, 900*.
	for _, b := range []isa.BlockID{100, 101, 500, 501, 502, 900, 1300} {
		p.OnRetire(isa.Inst{PC: isa.BlockBase(b), Size: 4, Kind: isa.KindALU}, false, 0)
	}
	// A miss on the first trigger replays the following regions.
	env.issued = nil
	p.OnDemand(100, false, [2]isa.Addr{})
	if p.StreamStarts != 1 {
		t.Fatalf("stream starts = %d", p.StreamStarts)
	}
	got := issuedSet(env.issued)
	for _, b := range []isa.BlockID{500, 501, 502, 900} {
		if !got[b] {
			t.Fatalf("stream missed block %d: %v", b, env.issued)
		}
	}
}

func TestPIFStorageBudget(t *testing.T) {
	p := NewPIF(DefaultPIFConfig())
	kb := float64(p.StorageBits()) / 8 / 1024
	if kb < 150 || kb > 300 {
		t.Fatalf("PIF storage = %.0f KB, want the paper's ~200 KB class", kb)
	}
}

// TestRetirers pins which catalog designs observe the retired stream: a
// design that drops OnRetire by accident would stop keeping its core awake
// for retirements and silently lose its training.
func TestRetirers(t *testing.T) {
	want := map[string]bool{"boomerang": true, "shotgun": true, "PIF": true, "RDIP": true}
	for _, e := range Catalog() {
		if _, ok := e.New().(Retirer); ok != want[e.Name] {
			t.Errorf("%s is a Retirer: %v, want %v", e.Name, ok, want[e.Name])
		}
	}
}
