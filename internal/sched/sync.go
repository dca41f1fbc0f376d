package sched

import (
	"sync/atomic"

	"repro/internal/locks"
	"repro/internal/spsc"
)

// Hooks couples a scheduler to the runtime around it: two callbacks for
// the instrumentation backend (Figures 10-11: serve arrows, drain
// phases) and the question batched service asks. Every field may be nil.
type Hooks struct {
	// OnServe fires when the lock owner hands a task to a waiting worker
	// through the delegation path.
	OnServe func(owner, served int)
	// OnDrain fires after the owner moves n tasks from the SPSC buffer
	// queues into the unsynchronized scheduler.
	OnDrain func(owner, n int)
	// Elevated reports whether a task above priority level 0 is queued
	// anywhere the runtime's ordering promise reaches (the policy, or
	// still on its way into an insertion queue). While it does, no run
	// buffer is consumed on the lock-free path: see Sync.Get.
	Elevated func() bool
}

// addQueue is one producer-side buffer: a bounded wait-free SPSC queue
// whose producer end is shared by the workers of one NUMA node under a
// PTLock (paper §3.1: "we use one SPSC queue and lock per NUMA node").
type addQueue[T comparable] struct {
	mu *locks.PTLock
	q  *spsc.Queue[T]
	_  [48]byte
}

// runBatch is the size of a worker's run buffer: how many executions one
// scheduler-lock cycle pays for while a backlog stands. Sized on
// spawn_flat (CHANGES.md, PR 18); a constant, not a knob.
const runBatch = 16

// runBuf is one worker's run buffer: up to runBatch tasks the worker
// popped from the policy in one lock tenure and hands itself, oldest
// first, on its next Gets. It is reclaimable — a worker stuck in a long
// body must not strand what it buffered — so every take, the owner's
// included, is a CAS on state. The protocol that keeps the CAS free of
// ABA: only the owning worker refills, only when the buffer is empty
// and only under the scheduler lock; anyone else takes only under the
// scheduler lock. A take therefore never spans a refill (a thief's
// cannot because it holds the lock the refill needs, the owner's cannot
// because the owner is the refiller), and slots[head] read before a
// successful CAS is the task that CAS removed. Slots are not cleared on
// a take (a thief may be reading them); a stale pointer lives until the
// next refill overwrites it.
//
// One buffer is three cache lines and a heap object of its own (a
// 192-byte object is line-aligned; TestSyncLayout), so a worker consuming
// its buffer touches no line another worker writes.
type runBuf[T comparable] struct {
	state atomic.Uint32 // head<<16 | n: slots[head:head+n] are buffered
	// passed counts policy pops the owner made over its own non-empty
	// buffer (elevated work was queued); at courtesyInterval the buffer
	// gets the next turn, as a waiting lower level does in Priority.Pop.
	// Owner only, under the lock.
	passed int32
	_      [8]byte
	slots  [runBatch]T
	_      [48]byte
}

// take removes the oldest buffered task, lowering count when it was the
// last. Callers other than the buffer's worker must own the scheduler
// lock.
func (b *runBuf[T]) take(count *atomic.Int32) (T, bool) {
	for {
		st := b.state.Load()
		n := st & 0xffff
		if n == 0 {
			var zero T
			return zero, false
		}
		head := st >> 16
		t := b.slots[head]
		if b.state.CompareAndSwap(st, (head+1)<<16|(n-1)) {
			if n == 1 {
				count.Add(-1)
			}
			return t, true
		}
	}
}

// Sync is the paper's synchronized scheduler (Listing 5). Ready tasks are
// buffered into SPSC queues so insertion never contends with the workers
// asking for tasks; whichever worker owns the Delegation Ticket Lock
// drains the buffers into the actual scheduling policy and serves tasks
// directly to the workers waiting on the lock — and, while a backlog
// stands, itself a batch: see Get.
//
// The struct is a whole number of cache lines (a 256-byte heap object is
// line-aligned; TestSyncLayout): line 0 holds the two words every poller
// reads, the rest is written only by NewSync, so neither shares a line
// with a heap neighbour's writes.
type Sync[T comparable] struct {
	// backlog reports whether the policy holds a task. The policy only
	// changes under the lock and the owner publishes the word before it
	// releases (unlock), so between two lock tenures it is exact; it is
	// stored only when it flips, so a standing backlog — or a policy
	// that is drained as fast as it fills — writes nothing.
	backlog atomic.Bool
	// buffered counts the non-empty run buffers: raised by a fill, lowered
	// by whichever take empties a buffer. It shares backlog's line so that
	// a poll of an empty scheduler still reads one line that nobody
	// writes, and it gates every look at a buffer: a workload that never
	// builds a backlog of 2*runBatch never touches one.
	buffered atomic.Int32
	_        [56]byte

	lock     *locks.DTLock[T]
	inner    Policy[T]
	local    LocalityAware[T] // inner, if it understands locality
	elevated elevatedCounter  // inner, if it has priority levels
	queues   []addQueue[T]
	qOf      []int        // worker -> add-queue index
	bufs     []*runBuf[T] // one per worker, each a heap object of its own
	hooks    Hooks
	_        [40]byte
}

// elevatedCounter is implemented by policies with priority levels
// (Priority): the number of queued tasks above level 0.
type elevatedCounter interface{ Elevated() int }

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
		bufs:   make([]*runBuf[T], workers),
		hooks:  hooks,
	}
	for w := range s.bufs {
		s.bufs[w] = &runBuf[T]{}
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
	s.elevated, _ = inner.(elevatedCounter)
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
			s.unlock(s.inner.Len())
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
// still holds a task (left is its length). Every tenure that may have
// changed the policy ends here, which is what lets idle trust backlog.
func (s *Sync[T]) unlock(left int) {
	if b := left > 0; b != s.backlog.Load() {
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
//
// Batched service: a worker that ends up owning the lock over a
// backlog of 2*runBatch or more pops runBatch further tasks into its run
// buffer, and its next runBatch calls return from there — no idle check,
// ticket, drain or backlog publication. Order is per worker, not global:
// a worker starts its level-0 tasks in policy order, two workers'
// batches interleave. Elevated work is never overtaken: nothing is
// buffered while the policy holds an elevated task, and the lock-free
// path is closed while the runtime reports one anywhere (hooks.Elevated),
// which sends the caller through the policy.
func (s *Sync[T]) Get(worker int) T {
	var task T
	if s.buffered.Load() != 0 {
		if worker < len(s.bufs) && (s.hooks.Elevated == nil || !s.hooks.Elevated()) {
			if t, ok := s.bufs[worker].take(&s.buffered); ok {
				return t
			}
		}
		// Somebody's buffer holds a task: not idle, whatever the policy
		// says. The tenure below reclaims it if nothing else is left.
	} else if s.idle() {
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
	task, left := s.next(worker)
	s.unlock(left)
	return task
}

// next picks the lock owner's own task: what the caller's buffer still
// holds (the lock-free path was closed, so it is older than anything in
// the policy), then the policy — refilling the buffer when the backlog
// allows — then, with the policy empty, a peer's buffer, so a task
// buffered by a worker that is stuck in a body is reclaimed by whoever
// runs out of work. While the policy itself holds elevated work that
// goes first, except that every courtesyInterval-th pop over a non-empty
// buffer yields to the buffer, which bounds a buffered task's wait the
// way Priority's courtesy slot bounds a queued one's. It also returns
// the policy's length as it leaves it, for unlock to publish.
func (s *Sync[T]) next(worker int) (task T, left int) {
	var own *runBuf[T]
	if worker < len(s.bufs) {
		own = s.bufs[worker]
	}
	queued := s.elevated != nil && s.elevated.Elevated() > 0
	if own != nil && s.buffered.Load() != 0 && (!queued || own.passed >= courtesyInterval) {
		if t, ok := own.take(&s.buffered); ok {
			own.passed = 0
			return t, s.inner.Len()
		}
	}
	task, ok := s.inner.Pop(worker)
	left = s.inner.Len()
	switch {
	case !ok:
		if s.buffered.Load() != 0 {
			for _, b := range s.bufs {
				if t, ok := b.take(&s.buffered); ok {
					return t, left
				}
			}
		}
	case queued:
		if own != nil && own.state.Load()&0xffff != 0 {
			own.passed++
		}
	case own != nil && left >= 2*runBatch:
		// own is empty here: with nothing elevated queued it was tried
		// first. Publish the count before the tasks so that it never reads
		// zero over a non-empty buffer.
		n := 0
		for ; n < runBatch; n++ {
			if own.slots[n], ok = s.inner.Pop(worker); !ok {
				break
			}
		}
		if n > 0 {
			own.passed = 0
			s.buffered.Add(1)
			own.state.Store(uint32(n))
			left -= n
		}
	}
	return task, left
}

// TryGet implements Scheduler; Get already returns without waiting for
// tasks (delegated waits are bounded by the lock hand-off).
func (s *Sync[T]) TryGet(worker int) T { return s.Get(worker) }

// Stop implements Scheduler; the Sync scheduler's Get never blocks, so
// nothing needs waking.
func (s *Sync[T]) Stop() {}

var _ Scheduler[*int] = (*Sync[*int])(nil)
