package sched

import (
	"sync/atomic"

	"repro/internal/locks"
	"repro/internal/spsc"
)

// Hooks lets the runtime observe scheduler-internal events for the
// instrumentation backend (Figures 10-11: serve arrows, drain phases).
type Hooks struct {
	// OnServe fires when the lock owner hands a task to a waiting worker
	// through the delegation path.
	OnServe func(owner, served int)
	// OnDrain fires after the owner moves n tasks from the SPSC buffer
	// queues into the unsynchronized scheduler.
	OnDrain func(owner, n int)
}

// addQueue is one producer-side buffer: a bounded wait-free SPSC queue
// whose producer end is shared by the workers of one NUMA node under a
// PTLock (paper §3.1: "we use one SPSC queue and lock per NUMA node").
type addQueue[T comparable] struct {
	mu *locks.PTLock
	q  *spsc.Queue[T]
	_  [48]byte
}

// Sync is the paper's synchronized scheduler (Listing 5). Ready tasks are
// buffered into SPSC queues so insertion never contends with the workers
// asking for tasks; whichever worker owns the Delegation Ticket Lock
// drains the buffers into the actual scheduling policy and serves tasks
// directly to the workers waiting on the lock.
//
// The struct is a whole number of cache lines (a 192-byte heap object is
// line-aligned; TestSyncLayout): line 0 is the one word every poller
// reads, the rest is written only by NewSync, so neither shares a line
// with a heap neighbour's writes.
type Sync[T comparable] struct {
	// backlog reports whether the policy holds a task. The policy only
	// changes under the lock and the owner publishes the word before it
	// releases (unlock), so between two lock tenures it is exact; it is
	// stored only when it flips, so a standing backlog — or a policy
	// that is drained as fast as it fills — writes nothing.
	backlog atomic.Bool
	_       [60]byte

	lock   *locks.DTLock[T]
	inner  Policy[T]
	local  LocalityAware[T] // inner, if it understands locality
	queues []addQueue[T]
	qOf    []int // worker -> add-queue index
	hooks  Hooks
	_      [24]byte
}

// NewSync builds a synchronized scheduler for `workers` worker threads
// plus `submitters` external submitter slots (indices workers..
// workers+submitters-1), spread over numaNodes add-queues of spscCap
// entries each, wrapping the given policy. Add accepts any slot index
// (the per-queue PTLock makes the SPSC producer side multi-caller
// safe), while Get is only ever called by real workers. Worker indices
// keep the same worker→node mapping as the Locality policy; the extra
// submitter slots round-robin over the nodes so external insertion
// load spreads without disturbing the workers' NUMA structure.
func NewSync[T comparable](inner Policy[T], workers, submitters, numaNodes, spscCap int, hooks Hooks) *Sync[T] {
	if numaNodes < 1 {
		numaNodes = 1
	}
	if spscCap < 2 {
		spscCap = 256
	}
	if submitters < 1 {
		submitters = 1
	}
	total := workers + submitters
	s := &Sync[T]{
		lock:   locks.NewDTLock[T](total),
		inner:  inner,
		queues: make([]addQueue[T], numaNodes),
		qOf:    make([]int, total),
		hooks:  hooks,
	}
	for i := range s.queues {
		s.queues[i] = addQueue[T]{mu: locks.NewPTLock(total), q: spsc.New[T](spscCap)}
	}
	// Workers (and the first submitter slot, the historical "external"
	// index) use the Locality-compatible mapping; further slots rotate.
	for w := 0; w <= workers; w++ {
		s.qOf[w] = w * numaNodes / (workers + 1)
	}
	for w := workers + 1; w < total; w++ {
		s.qOf[w] = (w - workers - 1) % numaNodes
	}
	s.local, _ = inner.(LocalityAware[T])
	return s
}

// Name implements Scheduler.
func (s *Sync[T]) Name() string { return "sync-dtlock" }

// Add inserts a ready task (Listing 5 addReadyTask): push into the local
// NUMA node's SPSC buffer; if it is full, opportunistically become the
// scheduler owner to drain it, then retry.
func (s *Sync[T]) Add(t T, worker int) {
	aq := &s.queues[s.qOf[worker]]
	for i := 0; ; i++ {
		aq.mu.Lock()
		ok := aq.q.Push(t)
		aq.mu.Unlock()
		if ok {
			return
		}
		if s.lock.TryLock() {
			s.processReadyTasks(worker)
			s.unlock()
		}
		locks.Spin(i)
	}
}

// processReadyTasks drains every SPSC buffer into the unsynchronized
// policy. Only the DTLock owner may call it (single consumer).
func (s *Sync[T]) processReadyTasks(owner int) {
	n := 0
	for i := range s.queues {
		if s.local != nil {
			node := i
			n += s.queues[i].q.ConsumeAll(func(t T) { s.local.PushLocal(t, node) })
		} else {
			n += s.queues[i].q.ConsumeAll(s.inner.Push)
		}
	}
	if n > 0 && s.hooks.OnDrain != nil {
		s.hooks.OnDrain(owner, n)
	}
}

// unlock releases the scheduler lock after publishing whether the policy
// still holds a task. Every tenure that may have changed the policy ends
// here, which is what lets idle trust backlog.
func (s *Sync[T]) unlock() {
	if b := s.inner.Len() > 0; b != s.backlog.Load() {
		s.backlog.Store(b)
	}
	s.lock.Unlock()
}

// idle reports that there is nothing to hand out: no published backlog
// and every insertion queue empty. It reads lines that change only on a
// push, a drain or a backlog flip, so polling an empty scheduler moves no
// cache line and takes no ticket. A drain in flight can hide its tasks
// from one call (out of the queue, backlog not yet published); they are
// visible again once the owner unlocks, so a false "idle" costs the
// caller one more poll. Nothing may sleep on it: the runtime parks on its
// own added-taken count, which Add's caller raises before the push.
func (s *Sync[T]) idle() bool {
	if s.backlog.Load() {
		return false
	}
	for i := range s.queues {
		if !s.queues[i].q.Empty() {
			return false
		}
	}
	return true
}

// Get returns a ready task or the zero value (Listing 5 getReadyTask).
// An idle scheduler answers without touching the lock. Otherwise, if
// another worker owns the DTLock the call delegates: the owner either
// serves this worker a task directly or releases the lock, in which case
// the worker acquires it and serves itself (and the others).
func (s *Sync[T]) Get(worker int) T {
	var task T
	if s.idle() {
		return task
	}
	if !s.lock.LockOrDelegate(uint64(worker), &task) {
		return task // served by the previous owner
	}
	s.processReadyTasks(worker)
	for !s.lock.Empty() {
		waiting := s.lock.Front()
		t, ok := s.inner.Pop(int(waiting))
		if !ok {
			break
		}
		s.lock.SetItem(waiting, t)
		s.lock.PopFront()
		if s.hooks.OnServe != nil {
			s.hooks.OnServe(worker, int(waiting))
		}
	}
	task, _ = s.inner.Pop(worker)
	s.unlock()
	return task
}

// TryGet implements Scheduler; Get already returns without waiting for
// tasks (delegated waits are bounded by the lock hand-off).
func (s *Sync[T]) TryGet(worker int) T { return s.Get(worker) }

// Stop implements Scheduler; the Sync scheduler's Get never blocks, so
// nothing needs waking.
func (s *Sync[T]) Stop() {}

var _ Scheduler[*int] = (*Sync[*int])(nil)
