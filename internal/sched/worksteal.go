package sched

import (
	"math/rand"
	"sync"
)

// WorkStealing is an LLVM-OpenMP-style scheduler: one double-ended task
// queue per worker, each protected by its own mutex (as in LLVM's
// runtime, which uses locked bounded deques rather than lock-free ones).
// Owners push and pop at the tail; thieves steal from the head of a
// random victim.
//
// The paper's observation (§3, §7) is that this design degrades to the
// global-lock behaviour under the single-creator pattern: every consumer
// ends up stealing from the creator's one deque, and that deque's lock
// becomes the scheduler bottleneck.
//
// It exists to reproduce Figures 7–9 and is not a QoS design: task
// priorities and deadlines are ignored. Ordering ready tasks globally
// over a hierarchy of deques is exactly the rework the paper's
// centralized design argues against (DESIGN.md, "Priority scheduling
// and QoS"); configurations that need priority or EDF order use the
// policy-wrapping schedulers.
type WorkStealing[T comparable] struct {
	queues []wsDeque[T]
}

type wsDeque[T comparable] struct {
	mu   sync.Mutex
	dq   []T
	head int
	_    [24]byte
}

// popTail removes from the owner end. Caller holds mu.
func (q *wsDeque[T]) popTail() (T, bool) {
	var zero T
	if len(q.dq) <= q.head {
		return zero, false
	}
	n := len(q.dq) - 1
	t := q.dq[n]
	q.dq[n] = zero
	q.dq = q.dq[:n]
	if q.head == n {
		q.dq = q.dq[:0]
		q.head = 0
	}
	return t, true
}

// popHead removes from the thief end. Caller holds mu.
func (q *wsDeque[T]) popHead() (T, bool) {
	var zero T
	if len(q.dq) <= q.head {
		return zero, false
	}
	t := q.dq[q.head]
	q.dq[q.head] = zero
	q.head++
	if q.head == len(q.dq) {
		q.dq = q.dq[:0]
		q.head = 0
	} else if q.head > 256 && q.head*2 > len(q.dq) {
		n := copy(q.dq, q.dq[q.head:])
		clear(q.dq[n:])
		q.dq = q.dq[:n]
		q.head = 0
	}
	return t, true
}

// NewWorkStealing builds a work-stealing scheduler with workers+1
// deques: one per worker thread plus the external-submitter deques
// (the runtime passes its slot count - 1; every deque has its own
// mutex, so any slot may Add concurrently).
func NewWorkStealing[T comparable](workers int) *WorkStealing[T] {
	return &WorkStealing[T]{queues: make([]wsDeque[T], workers+1)}
}

// Name implements Scheduler.
func (s *WorkStealing[T]) Name() string { return "work-stealing" }

// Add pushes the task onto the producing worker's own deque.
func (s *WorkStealing[T]) Add(t T, worker int) {
	q := &s.queues[worker]
	q.mu.Lock()
	q.dq = append(q.dq, t)
	q.mu.Unlock()
}

// Get pops from the worker's own deque tail, falling back to stealing
// from the head of the other deques in randomized order.
func (s *WorkStealing[T]) Get(worker int) T {
	var zero T
	q := &s.queues[worker]
	q.mu.Lock()
	t, ok := q.popTail()
	q.mu.Unlock()
	if ok {
		return t
	}

	n := len(s.queues)
	start := rand.Intn(n)
	for i := 0; i < n; i++ {
		v := &s.queues[(start+i)%n]
		if v == q {
			continue
		}
		v.mu.Lock()
		t, ok := v.popHead()
		v.mu.Unlock()
		if ok {
			return t
		}
	}
	return zero
}

// TryGet implements Scheduler.
func (s *WorkStealing[T]) TryGet(worker int) T { return s.Get(worker) }

// Stop implements Scheduler.
func (s *WorkStealing[T]) Stop() {}

var _ Scheduler[*int] = (*WorkStealing[*int])(nil)
