// Package sched implements the task scheduling system of paper §3 and
// the baseline designs it is evaluated against:
//
//   - Sync: the paper's synchronized scheduler (Listing 5) combining
//     per-NUMA SPSC buffer queues with the Delegation Ticket Lock, so the
//     task-creating core never contends with idle workers ("w/ DTLock").
//   - Central: a centralized scheduler behind a plain Partitioned Ticket
//     Lock (the "w/o DTLock" ablation variant).
//   - Blocking: a mutex+condvar central queue in the style of GOMP.
//   - WorkStealing: per-worker deques with random stealing in the style
//     of the LLVM OpenMP runtime.
//
// Schedulers are generic over the task type so the package has no
// dependency on the runtime core.
package sched

// Scheduler dispatches ready tasks to workers. T is a pointer-like
// comparable type whose zero value means "no task".
//
// Add may be called by any worker (and by one external submitter using
// index workers). Get is called by worker goroutines with their own
// index. Get returns the zero value when no task is available; it must
// not block indefinitely once Stop has been called.
type Scheduler[T comparable] interface {
	Add(t T, worker int)
	Get(worker int) T
	// TryGet is a non-blocking Get: it returns immediately with the zero
	// value when no task is available. Identical to Get for the
	// non-blocking schedulers; used by taskwait, which must keep polling
	// its own completion condition while helping execute tasks.
	TryGet(worker int) T
	Stop()
	Name() string
}

// Policy is an *unsynchronized* ready-task container wrapped by the
// synchronized schedulers; it implements the scheduling policy proper
// (paper: "the SyncScheduler is a wrapper of the unsynchronized
// scheduler, which implements the actual scheduling policy").
type Policy[T any] interface {
	Push(t T)
	Pop(worker int) (T, bool)
	Len() int
}

// FIFO is a growable ring-buffer queue: tasks run in creation order,
// the default Nanos6 policy. The scheduler's lock owner writes head,
// tail and count on every task, so the struct is padded to one cache
// line (a 64-byte heap object is line-aligned): at 48 bytes it shared
// lines with whatever the allocator placed beside it — the read-mostly
// deps.WaitFree header among them — and throughput_ops_s @ spawn_flat
// moved 9 % when one unrelated 48-byte allocation was added to the
// runtime's constructor.
type FIFO[T any] struct {
	buf        []T
	head, tail int // tail == next write; count tracks occupancy
	count      int
	_          [16]byte
}

// NewFIFO returns a FIFO policy with a small initial capacity.
func NewFIFO[T any]() *FIFO[T] { return &FIFO[T]{buf: make([]T, 64)} }

// Push implements Policy.
func (q *FIFO[T]) Push(t T) {
	if q.count == len(q.buf) {
		q.grow()
	}
	q.buf[q.tail] = t
	q.tail = (q.tail + 1) % len(q.buf)
	q.count++
}

// Pop implements Policy.
func (q *FIFO[T]) Pop(int) (T, bool) {
	var zero T
	if q.count == 0 {
		return zero, false
	}
	t := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	return t, true
}

// Len implements Policy.
func (q *FIFO[T]) Len() int { return q.count }

func (q *FIFO[T]) grow() {
	nb := make([]T, len(q.buf)*2)
	n := copy(nb, q.buf[q.head:])
	copy(nb[n:], q.buf[:q.head])
	q.buf = nb
	q.head = 0
	q.tail = q.count
}

// LIFO is a stack policy: most recently readied task first, which favours
// cache locality for deep dependency chains.
type LIFO[T any] struct {
	buf []T
}

// NewLIFO returns an empty LIFO policy.
func NewLIFO[T any]() *LIFO[T] { return &LIFO[T]{} }

// Push implements Policy.
func (q *LIFO[T]) Push(t T) { q.buf = append(q.buf, t) }

// Pop implements Policy.
func (q *LIFO[T]) Pop(int) (T, bool) {
	var zero T
	if len(q.buf) == 0 {
		return zero, false
	}
	t := q.buf[len(q.buf)-1]
	q.buf[len(q.buf)-1] = zero
	q.buf = q.buf[:len(q.buf)-1]
	return t, true
}

// Len implements Policy.
func (q *LIFO[T]) Len() int { return len(q.buf) }
