package event

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Slots is a pool of exclusive thread indices for goroutines that are
// neither workers nor root-shard lease holders but run thread-indexed
// runtime code: every per-thread structure that code touches
// (dependency mailbox, allocator free list, scheduler insertion, trace
// buffer) requires an index unique among concurrent callers. The pool
// hands out indices [base, base+n) guarded by one mutex each.
// TryAcquire never waits, for holders that keep their index across
// arbitrary code (the runtime's inline-serving submitters, see
// core/topology.go). Acquire round-robins a cursor over the slots and
// spins (with yields) until one frees; the runtime does not use it —
// only the benchmark's slots driver does.
type Slots struct {
	base int
	next atomic.Uint32
	mus  []paddedMutex
}

// paddedMutex keeps neighbouring slot locks off one cache line.
type paddedMutex struct {
	mu sync.Mutex
	_  [56]byte
}

// NewSlots returns a pool of n exclusive indices starting at base.
func NewSlots(base, n int) *Slots {
	if n < 1 {
		n = 1
	}
	return &Slots{base: base, mus: make([]paddedMutex, n)}
}

// Acquire returns an exclusive thread index; the caller must Release it
// from the same goroutine.
func (s *Slots) Acquire() int {
	k := int(s.next.Add(1))
	n := len(s.mus)
	for i := 0; ; i++ {
		idx := (k + i) % n
		if s.mus[idx].mu.TryLock() {
			return s.base + idx
		}
		if (i+1)%n == 0 {
			runtime.Gosched()
		}
	}
}

// TryAcquire returns an exclusive thread index, or -1 when every slot
// is busy. It never waits and — unlike Acquire — touches no shared
// cursor: it scans from slot 0, so a lightly loaded pool keeps reusing
// the lowest slots and a caller on a hot path adds no cross-core write
// beyond the slot lock itself.
func (s *Slots) TryAcquire() int {
	for i := range s.mus {
		if s.mus[i].mu.TryLock() {
			return s.base + i
		}
	}
	return -1
}

// Release returns a slot obtained from Acquire or TryAcquire.
func (s *Slots) Release(slot int) {
	s.mus[slot-s.base].mu.Unlock()
}
