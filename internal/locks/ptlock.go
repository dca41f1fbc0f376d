package locks

import "sync/atomic"

// paddedUint64 is an atomic 64-bit word padded to a full cache line so
// that adjacent waiting slots never share a line (the whole point of the
// partitioned waiting queue, paper §3.2).
type paddedUint64 struct {
	v atomic.Uint64
	_ [56]byte
}

// PTLock is a Partitioned Ticket Lock (Dice, SPAA'11; paper Listing 3).
//
// The wait queue is a circular array of padded slots representing an
// infinite virtual waiting queue: a thread with ticket t busy-waits on
// slot t%size until the slot value reaches t. With at least as many slots
// as CPUs every waiter spins on a private cache line, so a release
// invalidates exactly one waiter's line instead of all of them.
//
// Invariants (following the paper's initialization head=size,
// tail=size+1, waitq[0]=size):
//
//   - tickets are handed out by fetch-and-add on head;
//   - ticket t may enter once waitq[t%size] >= t;
//   - tail-1 is the most recently granted ticket, so the lock is free
//     exactly when head == tail-1.
//
// Layout: head and tail are each written on every acquisition, size and
// the wait header are read on every acquisition and never written. Each
// of the three groups keeps a cache line to itself, and the struct is
// padded at both ends, because it lives on the heap beside whatever was
// allocated around it — in sched.Sync that is the *other* lock (the
// scheduler's DTLock next to the insertion queue's PTLock), and without
// the padding one lock's read-only words shared a line with the other
// lock's head: every producer insertion invalidated a line every
// consumer Get reads, and back.
type PTLock struct {
	_    [64]byte
	head atomic.Uint64
	_    [56]byte
	// tail is written only by the lock owner but read by TryLock and by
	// the DTLock service operations, hence atomic.
	tail atomic.Uint64
	_    [56]byte
	size uint64
	wait []paddedUint64
	_    [32]byte
}

// DefaultPTLockSize is the waiting-array size used when callers do not
// know their thread count; it matches the paper's constant of 64.
const DefaultPTLockSize = 64

// NewPTLock returns a PTLock whose waiting array has at least size slots.
// size must be at least the maximum number of threads that contend on the
// lock for the single-slot-per-waiter property to hold; correctness is
// preserved for any positive size.
func NewPTLock(size int) *PTLock {
	if size < 1 {
		size = 1
	}
	l := &PTLock{size: uint64(size), wait: make([]paddedUint64, size)}
	l.head.Store(l.size)
	l.tail.Store(l.size + 1)
	l.wait[0].v.Store(l.size) // pre-grant the first ticket (== size)
	return l
}

// Size returns the capacity of the waiting array.
func (l *PTLock) Size() int { return int(l.size) }

// getTicket draws the next ticket.
func (l *PTLock) getTicket() uint64 { return l.head.Add(1) - 1 }

// waitTurn busy-waits on this ticket's private slot until granted.
func (l *PTLock) waitTurn(ticket uint64) {
	slot := &l.wait[ticket%l.size].v
	for i := 0; slot.Load() < ticket; i++ {
		Spin(i)
	}
}

// Lock acquires the lock in FIFO order.
func (l *PTLock) Lock() {
	l.waitTurn(l.getTicket())
}

// Unlock grants the next ticket in the virtual waiting queue.
//
// The order of the two stores is load-bearing: tail must advance BEFORE
// the grant is published. The thread admitted by the grant may run its
// own Unlock (or the DTLock service operations, which read tail)
// immediately; if the grant were visible first, that thread could read
// the pre-advance tail, re-grant consumed tickets and stall the virtual
// queue. (The paper's Listing 3 writes `_waitq[idx] = _tail++`, leaving
// this ordering to the elided memory-order annotations.)
func (l *PTLock) Unlock() {
	t := l.tail.Load()
	l.tail.Store(t + 1)
	l.wait[t%l.size].v.Store(t)
}

// TryLock acquires the lock only if it is currently free. The lock is
// free exactly when the next ticket to be drawn (head) is the most
// recently granted one (tail-1) AND that grant has been published;
// claiming the ticket by CAS then acquires without waiting.
//
// The grant check is load-bearing. Unlock advances tail before it
// stores the grant, so between the two stores head == tail-1 already
// holds. A TryLock that went ahead there would own the lock while the
// releasing thread still owes its grant store; if that thread is
// descheduled for size further lock cycles (a goroutine preemption is
// enough), the late store lands on a slot since granted to ticket
// t+size and moves it backwards, and the thread that draws t+size waits
// forever (the insertion-overflow hang of sched.Sync: producer spinning
// in Add on a full queue, consumer in LockOrDelegate). Lock needs no
// such check: it waits for the grant itself.
func (l *PTLock) TryLock() bool {
	g := l.tail.Load() - 1
	if l.wait[g%l.size].v.Load() < g {
		return false // release in progress: the grant is not out yet
	}
	return l.head.CompareAndSwap(g, g+1)
}

var (
	_ Locker    = (*PTLock)(nil)
	_ TryLocker = (*PTLock)(nil)
)
