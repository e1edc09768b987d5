package service

import (
	"container/heap"
	"errors"
	"sync"
)

// Queue admission errors, mapped to HTTP statuses by the API layer
// (429 + Retry-After and 503 respectively).
var (
	ErrQueueFull = errors.New("service: job queue full")
	ErrDraining  = errors.New("service: server draining")
)

// jobQueue is the bounded priority queue feeding the worker pool: higher
// Spec.Priority pops first, ties in submission order. The bound is the
// backpressure mechanism — a full queue rejects with ErrQueueFull and the
// API translates that into 429 + Retry-After, shedding load instead of
// accumulating unbounded state. Close wakes all poppers for drain; jobs
// still queued at close are deliberately left unpopped (they are persisted
// on disk and recovered by the next process).
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  jobHeap
	cap    int
	closed bool
}

func newJobQueue(capacity int) *jobQueue {
	q := &jobQueue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push admits a job or reports backpressure/drain.
func (q *jobQueue) push(j *job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrDraining
	}
	if len(q.items) >= q.cap {
		return ErrQueueFull
	}
	heap.Push(&q.items, j)
	q.cond.Signal()
	return nil
}

// requeue puts back a job an earlier process accepted: the capacity bounds
// new admissions, not a crash backlog (the queue plus the running jobs).
func (q *jobQueue) requeue(j *job) {
	q.mu.Lock()
	heap.Push(&q.items, j)
	q.cond.Signal()
	q.mu.Unlock()
}

// pop blocks until a job is available (highest priority first) or the
// queue closes, in which case ok is false.
func (q *jobQueue) pop() (j *job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return nil, false
	}
	return heap.Pop(&q.items).(*job), true
}

// len reports queued (not yet popped) jobs.
func (q *jobQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// close stops admissions and wakes every blocked pop.
func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// jobHeap orders by (priority desc, seq asc).
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].spec.Priority != h[j].spec.Priority {
		return h[i].spec.Priority > h[j].spec.Priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}
