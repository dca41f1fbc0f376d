// Package locks implements the synchronization primitives used by the
// task-based runtime reproduced from "Advanced Synchronization Techniques
// for Task-based Runtime Systems" (PPoPP '21): classic Ticket Locks,
// Partitioned Ticket Locks (paper Listing 3), Ticket Locks Augmented with
// a Waiting array (TWA), MCS queue locks, and the paper's novel Delegation
// Ticket Lock (paper Listing 4).
//
// All spin loops in this package yield to the Go scheduler after a bounded
// busy-spin budget. The paper pins one kernel thread per core and spins
// natively; under the Go runtime an unbounded spin can starve the very
// goroutine that would release the lock whenever workers outnumber
// GOMAXPROCS, so the yield keeps oversubscribed configurations live while
// preserving the contention behaviour for the common 1:1 case.
package locks

import "runtime"

// spinBudget is the number of busy iterations a waiter performs before it
// starts yielding to the Go scheduler. The value is deliberately small:
// it is enough to catch a fast hand-off without burning a time slice.
const spinBudget = 128

// singleProc records whether the process runs on a single scheduler
// thread, in which case busy-waiting can never observe progress (the
// thread that would release the lock cannot run) and waiters yield
// immediately. Captured once at init: changing GOMAXPROCS mid-run only
// costs some spinning, never correctness.
var singleProc = runtime.GOMAXPROCS(0) == 1

// Spin performs one iteration of a bounded busy-wait. The caller passes
// its local iteration count; Spin busy-loops for the first spinBudget
// iterations and yields afterwards. Typical use:
//
//	for i := 0; !cond(); i++ { locks.Spin(i) }
func Spin(i int) {
	if !singleProc && i < spinBudget {
		_ = procYield()
		return
	}
	runtime.Gosched()
}

// SpinPaced performs one iteration of a long busy-wait whose caller
// must keep its P: it busy-loops and yields to the Go scheduler only on
// the last of every `every` iterations — a goroutine that yields on
// each poll, as Spin does past its budget, can get its P back a
// millisecond or more later when the other Ps are busy. With a single
// P it yields on every iteration, as Spin does. every must be positive.
func SpinPaced(i, every int) {
	if !singleProc && i%every != every-1 {
		_ = procYield()
		return
	}
	runtime.Gosched()
}

// procYield executes a short platform pause. Without access to the PAUSE
// instruction from pure Go we approximate it with a non-inlinable call:
// the call overhead itself (a couple of nanoseconds) plays the role of
// the pause, without generating any shared-memory traffic.
//
//go:noinline
func procYield() uint64 {
	var sink uint64
	for i := uint64(0); i < 4; i++ {
		sink += i
	}
	return sink
}

// Locker is the minimal mutual exclusion interface shared by every lock in
// this package, compatible with sync.Locker.
type Locker interface {
	Lock()
	Unlock()
}

// TryLocker extends Locker with a non-blocking acquisition attempt.
type TryLocker interface {
	Locker
	TryLock() bool
}
