// Package alloc provides the task-memory allocators of paper §4. After
// the dependency system and the scheduler are optimized, memory
// allocation becomes the next bottleneck: general-purpose allocators that
// serialize every request throttle task creation. The paper swaps the
// system allocator for jemalloc; here the contrast is reproduced with two
// allocators behind one interface:
//
//   - Pooled: per-worker free lists refilled in batches from a shared
//     arena, emulating jemalloc's thread caches (the "optimized" variant).
//   - Serial: every allocation and free takes one global lock and pays a
//     simulated metadata cost, emulating a serializing system allocator
//     (the "w/o jemalloc" variant).
//
// Go's own allocator is already scalable, which would hide the paper's
// bottleneck entirely; the Serial allocator deliberately reintroduces it
// so the ablation benchmarks can measure its impact.
package alloc

import "sync"

// Allocator hands out and recycles objects of type T for threads
// identified by an exclusive index; the runtime sizes it for its full
// slot space (internal/core/topology.go), not just its workers.
type Allocator[T any] interface {
	Get(worker int) *T
	Put(worker int, obj *T)
	Name() string
}

// Pooled is the scalable allocator: each worker owns a private free list
// and touches the shared arena only to move batches, amortizing the lock
// over batchSize objects (jemalloc's tcache flush/fill, structurally).
type Pooled[T any] struct {
	batch  int
	local  []poolSlot[T]
	mu     sync.Mutex
	global []*T
}

type poolSlot[T any] struct {
	free []*T
	_    [40]byte
}

// NewPooled returns a pooled allocator for the indices 0..last (the
// runtime passes Slots()-1) with the given refill batch size (0: 64).
func NewPooled[T any](last, batch int) *Pooled[T] {
	if batch <= 0 {
		batch = 64
	}
	return &Pooled[T]{batch: batch, local: make([]poolSlot[T], last+1)}
}

// Name implements Allocator.
func (p *Pooled[T]) Name() string { return "pooled" }

// Get returns a zeroed-or-recycled object. The caller is responsible for
// resetting recycled state (the runtime's Task.reset does).
func (p *Pooled[T]) Get(worker int) *T {
	l := &p.local[worker]
	if n := len(l.free); n > 0 {
		obj := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return obj
	}
	// Refill from the global arena.
	p.mu.Lock()
	take := p.batch
	if take > len(p.global) {
		take = len(p.global)
	}
	if take > 0 {
		cut := len(p.global) - take
		l.free = append(l.free, p.global[cut:]...)
		clearPtrs(p.global[cut:])
		p.global = p.global[:cut]
	}
	p.mu.Unlock()
	if n := len(l.free); n > 0 {
		obj := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return obj
	}
	return new(T)
}

// Put recycles an object into the worker's free list, flushing half the
// list to the global arena when it overfills.
func (p *Pooled[T]) Put(worker int, obj *T) {
	l := &p.local[worker]
	l.free = append(l.free, obj)
	if len(l.free) >= 2*p.batch {
		cut := len(l.free) - p.batch
		p.mu.Lock()
		p.global = append(p.global, l.free[cut:]...)
		p.mu.Unlock()
		clearPtrs(l.free[cut:])
		l.free = l.free[:cut]
	}
}

func clearPtrs[T any](s []*T) {
	for i := range s {
		s[i] = nil
	}
}

// Serial emulates a serializing general-purpose allocator: one global
// mutex guards every operation, plus a small constant amount of metadata
// work under the lock (free-list threading), which is what turns it into
// a scalability bottleneck on many-core runs.
type Serial[T any] struct {
	mu   sync.Mutex
	free []*T
	// meta simulates allocator bookkeeping performed under the lock.
	meta [8]uint64
}

// NewSerial returns the serializing allocator.
func NewSerial[T any]() *Serial[T] { return &Serial[T]{} }

// Name implements Allocator.
func (s *Serial[T]) Name() string { return "serial" }

// Get implements Allocator.
func (s *Serial[T]) Get(worker int) *T {
	s.mu.Lock()
	s.bookkeep()
	var obj *T
	if n := len(s.free); n > 0 {
		obj = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	}
	s.mu.Unlock()
	if obj == nil {
		obj = new(T)
	}
	return obj
}

// Put implements Allocator.
func (s *Serial[T]) Put(worker int, obj *T) {
	s.mu.Lock()
	s.bookkeep()
	s.free = append(s.free, obj)
	s.mu.Unlock()
}

// bookkeep performs a few dependent memory operations under the lock,
// standing in for size-class lookup and free-list threading.
func (s *Serial[T]) bookkeep() {
	x := s.meta[0]
	for i := range s.meta {
		x = x*2654435761 + s.meta[i]
		s.meta[i] = x
	}
}

var (
	_ Allocator[int] = (*Pooled[int])(nil)
	_ Allocator[int] = (*Serial[int])(nil)
)
