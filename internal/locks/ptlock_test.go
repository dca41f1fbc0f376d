package locks

import (
	"testing"
	"time"
	"unsafe"
)

// TestPTLockTryLockDuringUnlock replays, step by step, the interleaving
// behind the insertion-overflow hang: an owner preempted between
// Unlock's two stores (tail advanced, grant not yet published) while
// another thread cycles TryLock/Unlock around the whole waiting array.
// If TryLock treats the half-released lock as free, the owner's late
// grant store lands on a slot that has since been granted to a newer
// ticket and moves it backwards; the next Lock then waits on a turn
// that never comes. TryLock must refuse until the grant is published.
func TestPTLockTryLockDuringUnlock(t *testing.T) {
	const size = 2
	l := NewPTLock(size)
	l.Lock()
	// First half of the owner's Unlock; the owner is then "preempted".
	g := l.tail.Load()
	l.tail.Store(g + 1)
	for i := 0; i < size; i++ {
		if l.TryLock() {
			if i == 0 {
				t.Error("TryLock acquired a lock whose release was not yet published")
			}
			l.Unlock()
		}
	}
	// The owner resumes: second half of Unlock.
	l.wait[g%l.size].v.Store(g)

	done := make(chan struct{})
	go func() {
		l.Lock()
		l.Unlock()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Lock never got its turn: a late grant store moved a waiting slot backwards")
	}
}

// TestPTLockLayout pins the false-sharing guard of the PTLock struct:
// the two words written per acquisition and the read-only group each
// sit at least a cache line apart, and nothing hot sits within a line
// of either end of the (arbitrarily placed) heap object.
func TestPTLockLayout(t *testing.T) {
	const line = 64
	var l PTLock
	head, tail := unsafe.Offsetof(l.head), unsafe.Offsetof(l.tail)
	ro, end := unsafe.Offsetof(l.size), unsafe.Sizeof(l)
	roEnd := unsafe.Offsetof(l.wait) + unsafe.Sizeof(l.wait)
	switch {
	case head < line:
		t.Errorf("head at %d: within a line of the object's start", head)
	case tail-head < line:
		t.Errorf("head at %d and tail at %d can share a line", head, tail)
	case ro-tail < line:
		t.Errorf("tail at %d and the read-only words at %d can share a line", tail, ro)
	case end-roEnd < line/2:
		t.Errorf("read-only words end at %d of %d: a neighbour's first word can share their line", roEnd, end)
	}
}
