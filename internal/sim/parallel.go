package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"dnc/internal/core"
)

// parEngine shards the cores of one run across goroutines while reproducing
// the serial loop bit-exactly. Cores interact only through the shared
// fabric (NoC/LLC/DRAM), so the engine puts every core in posted mode
// (core/posted.go): a shared-fabric request goes into the core's outbox with
// a provisional reply at issue + L, where L is Uncore.MinRoundTrip, the
// fewest cycles any reply can take (20 at the Table III defaults).
//
// The coordinator runs the machine in epochs of at most L cycles. In an epoch
// every shard runs each of its cores through the whole span on its own, with
// no communication: a provisional reply posted inside the epoch cannot fall
// due before it ends. At the join the coordinator replays every outbox
// through Uncore.Access in the serial contention order — by cycle, then by
// tile, then in posting order — and each reply patches the MSHR ready cycle,
// ROB completion or counter its provisional value set, before any core
// reaches a cycle where the value matters. Why the provisional values cannot
// change anything before they are patched is argued in core/posted.go.
//
// Since the cores of an epoch are independent, which goroutine runs a core
// does not matter. Each shard runs its own contiguous range first and then
// takes over, from the far end, cores of other shards not yet started, so an
// epoch ends when the work does rather than when the slowest range does.
//
// Epochs also end at every boundary where the serial loop observes the
// machine (window end, poll, sampling), so between epochs the coordinator
// runs the boundary work on exactly the state the serial loop would show.
// The sleep table is the serial loop's too (engineState).
type parEngine struct {
	m         *machine
	lookahead uint64

	// order lists, per shard, the cores it tries to claim in an epoch: its
	// own range, then the other ranges from their far ends. Shard 0 runs on
	// the coordinator's goroutine, each later one on a worker's.
	order   [][]int
	claimed []paddedCounter // per core: the last epoch a shard claimed it in
	workers []*shardWorker
	exited  sync.WaitGroup
	epochs  uint64 // epochs dispatched to the current workers
	fail    atomic.Pointer[shardFailure]

	active []int // replay scratch: cores with something to settle
}

// paddedCounter keeps a counter on a cache line of its own.
type paddedCounter struct {
	v atomic.Uint64
	_ [56]byte
}

// shardWorker is one worker goroutine's mailbox. from and to are written
// before start is posted; from == to asks the worker to exit.
type shardWorker struct {
	start    signal
	from, to uint64
	_        [64]byte // keep the coordinator's writes off the worker's line
	done     signal
}

// signal hands epoch numbers from one goroutine to another: the poster
// stores the number and rings the bell, the waiter polls, then yields, then
// parks on the bell. Yielding keeps the handoff live under GOMAXPROCS=1;
// parking keeps an idle waiter from burning its CPU.
type signal struct {
	n    atomic.Uint64
	bell chan struct{}
}

// How long a waiter polls and then yields before it parks. An epoch's join
// and replay take microseconds; a parked waiter takes tens to wake.
const (
	spinPolls  = 256
	spinYields = 512
)

func newSignal() signal { return signal{bell: make(chan struct{}, 1)} }

func (s *signal) post(n uint64) {
	s.n.Store(n)
	select {
	case s.bell <- struct{}{}:
	default: // a ring is already pending; the waiter re-reads n after it
	}
}

func (s *signal) wait(n uint64) {
	for i := 0; s.n.Load() < n; i++ {
		switch {
		case i < spinPolls:
		case i < spinPolls+spinYields:
			runtime.Gosched()
		default:
			<-s.bell
		}
	}
}

// shardWorkers counts the live worker goroutines of every sharded run in
// the process (the coordinators not included).
var shardWorkers atomic.Int64

// shardFailure is a panic recovered inside a worker, carried to the
// coordinator with the worker's own stack.
type shardFailure struct {
	shard int
	val   any
	stack []byte
}

// minRoundTrip is where the engine takes its lookahead from: a variable so
// that a test can claim a longer one than the fabric honours and watch
// Replay refuse it.
var minRoundTrip = (*core.Uncore).MinRoundTrip

func newParEngine(m *machine) *parEngine {
	n := len(m.cores)
	return &parEngine{
		m:         m,
		lookahead: minRoundTrip(m.uncore),
		claimed:   make([]paddedCounter, n),
		active:    make([]int, 0, n),
	}
}

// claimOrders splits 0..n-1 into jobs contiguous ranges, sizes differing by
// at most one, and returns each shard's claim order: its own range forward,
// then every other range backward, the nearest following shard's first.
func claimOrders(n, jobs int) [][]int {
	ranges := make([][]int, jobs)
	base, rem := n/jobs, n%jobs
	next := 0
	for s := range ranges {
		size := base
		if s < rem {
			size++
		}
		for range size {
			ranges[s] = append(ranges[s], next)
			next++
		}
	}
	orders := make([][]int, jobs)
	for s := range orders {
		orders[s] = append(orders[s], ranges[s]...)
		for k := 1; k < jobs; k++ {
			r := ranges[(s+k)%jobs]
			for i := len(r) - 1; i >= 0; i-- {
				orders[s] = append(orders[s], r[i])
			}
		}
	}
	return orders
}

// resize re-splits the cores across jobs shards, replacing the workers.
func (p *parEngine) resize(jobs int) {
	if len(p.order) == jobs {
		return
	}
	p.stop()
	p.order = claimOrders(len(p.m.cores), jobs)
	for s := 1; s < jobs; s++ {
		w := &shardWorker{start: newSignal(), done: newSignal()}
		p.workers = append(p.workers, w)
		p.exited.Add(1)
		go p.work(s, w)
	}
}

// stop ends the workers and waits for them to exit. An epoch is in flight
// only when the coordinator's own shard panicked; it is joined first.
func (p *parEngine) stop() {
	for _, w := range p.workers {
		w.done.wait(p.epochs)
		w.from, w.to = 0, 0
		w.start.post(p.epochs + 1)
	}
	p.exited.Wait()
	p.workers, p.order, p.epochs = nil, nil, 0
	for i := range p.claimed {
		p.claimed[i].v.Store(0)
	}
}

func (p *parEngine) work(s int, w *shardWorker) {
	shardWorkers.Add(1)
	defer func() {
		shardWorkers.Add(-1)
		p.exited.Done()
	}()
	for n := uint64(1); ; n++ {
		w.start.wait(n)
		if w.from == w.to {
			return
		}
		p.runGuarded(s, n, w.from, w.to)
		w.done.post(n)
	}
}

// runGuarded funnels a worker's panic to the coordinator, with the worker's
// stack, instead of killing the process; the epoch is still joined.
func (p *parEngine) runGuarded(s int, epoch, from, to uint64) {
	defer func() {
		if r := recover(); r != nil {
			p.fail.CompareAndSwap(nil, &shardFailure{shard: s, val: r, stack: debug.Stack()})
		}
	}()
	p.runShard(s, epoch, from, to)
}

// runShard runs every core shard s claims in the given epoch through
// [from, to).
func (p *parEngine) runShard(s int, epoch, from, to uint64) {
	for _, i := range p.order[s] {
		if p.claimed[i].v.Swap(epoch) != epoch {
			p.runCore(i, from, to)
		}
	}
}

// runCore settles core i's last epoch and runs it through [from, to). A core
// whose next required full Tick (core.IdleWake) lies ahead jumps there in
// one FastForward, or, if that is past the epoch, goes to sleep in the sleep
// table lagging the clock; the lag is settled when it wakes or at the next
// sync point, as in the serial loop.
func (p *parEngine) runCore(i int, from, to uint64) {
	c, e := p.m.cores[i], &p.m.eng
	c.Settle()
	cyc := from
	if e.asleep[i] {
		if e.wake[i] >= to {
			return
		}
		cyc = e.wake[i]
		if lag := cyc - c.Cycle(); lag > 0 {
			c.FastForward(lag)
		}
		e.asleep[i] = false
	}
	for cyc < to {
		c.Tick()
		cyc++
		if w := c.IdleWake(); w > cyc {
			if w >= to {
				e.asleep[i], e.wake[i] = true, w
				return
			}
			c.FastForward(w - cyc)
			cyc = w
		}
	}
}

// epoch runs every core through [from, to), joins the shards, and replays
// the posted requests; each core settles their replies when it next runs.
func (p *parEngine) epoch(from, to uint64) error {
	p.epochs++
	for _, w := range p.workers {
		w.from, w.to = from, to
		w.start.post(p.epochs)
	}
	p.runShard(0, p.epochs, from, to)
	for _, w := range p.workers {
		w.done.wait(p.epochs)
	}
	if f := p.fail.Load(); f != nil {
		return fmt.Errorf("sim: shard %d panicked during cycles [%d,%d): %v\nshard stack:\n%s",
			f.shard, from, to, f.val, f.stack)
	}
	active := p.active[:0]
	for i, c := range p.m.cores {
		if c.Posted() {
			active = append(active, i)
		}
	}
	for cyc := from; len(active) > 0; cyc++ {
		k := 0
		for _, i := range active {
			if p.m.cores[i].Replay(cyc) {
				active[k] = i
				k++
			}
		}
		active = active[:k]
	}
	p.active = active
	return nil
}
