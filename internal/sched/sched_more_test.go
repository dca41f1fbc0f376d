package sched

import (
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestTryGetNonBlocking(t *testing.T) {
	for name, s := range allSchedulers(2) {
		if got := s.TryGet(0); got != nil {
			t.Fatalf("%s: TryGet on empty scheduler returned a task", name)
		}
		v := 7
		s.Add(&v, 0)
		if got := s.TryGet(0); got == nil || *got != 7 {
			t.Fatalf("%s: TryGet missed the queued task", name)
		}
		s.Stop()
	}
}

func TestSyncDrainHookCountsTasks(t *testing.T) {
	var drained atomic.Int64
	s := NewSync[*int](NewFIFO[*int](), 2, 1, 1, 64, Hooks{
		OnDrain: func(owner, n int) { drained.Add(int64(n)) },
	})
	vals := make([]int, 10)
	for i := range vals {
		s.Add(&vals[i], 0)
	}
	for i := 0; i < 10; i++ {
		if s.Get(0) == nil {
			t.Fatal("task lost")
		}
	}
	if drained.Load() != 10 {
		t.Fatalf("drain hook counted %d, want 10", drained.Load())
	}
}

func TestSchedulerNames(t *testing.T) {
	want := map[string]string{
		"sync": "sync-dtlock", "central": "central-ptlock",
		"blocking": "blocking-central", "worksteal": "work-stealing",
	}
	for key, s := range allSchedulers(1) {
		if s.Name() != want[key] {
			t.Fatalf("%s: Name() = %q", key, s.Name())
		}
		s.Stop()
	}
}

func TestWorkStealingCompaction(t *testing.T) {
	// Stealing from the head many times exercises the compaction path.
	s := NewWorkStealing[*int](1)
	vals := make([]int, 2000)
	for i := range vals {
		s.Add(&vals[i], 0)
	}
	for i := 0; i < 2000; i++ {
		if s.Get(1) == nil { // worker 1 always steals from worker 0
			t.Fatalf("steal %d failed", i)
		}
	}
	if s.Get(1) != nil {
		t.Fatal("extra task after drain")
	}
}

func TestFIFOGrowPreservesOrderAcrossWrap(t *testing.T) {
	q := NewFIFO[*int]()
	backing := make([]int, 300)
	// Interleave to move head off zero, then force growth.
	for i := 0; i < 40; i++ {
		backing[i] = i
		q.Push(&backing[i])
	}
	for i := 0; i < 30; i++ {
		q.Pop(0)
	}
	for i := 40; i < 300; i++ {
		backing[i] = i
		q.Push(&backing[i])
	}
	for want := 30; want < 300; want++ {
		p, ok := q.Pop(0)
		if !ok || *p != want {
			t.Fatalf("got %v want %d", p, want)
		}
	}
}

// TestFIFOLayout pins the FIFO's per-task-written control words to
// exactly one cache line (a 64-byte heap object is line-aligned), so
// they share no line with a heap neighbour.
func TestFIFOLayout(t *testing.T) {
	if sz := unsafe.Sizeof(FIFO[*int]{}); sz != 64 {
		t.Errorf("FIFO is %d bytes, want one 64-byte line", sz)
	}
}

// TestSyncLayout pins the synchronized scheduler to whole cache lines:
// the two published words every poller reads (backlog, buffered) have
// line 0 to themselves, everything after them is written only by
// NewSync, and the struct's size is a line-aligned allocator class — so
// neither part shares a line with a heap neighbour. The run buffers are
// whole lines too, one line-aligned heap object per worker.
func TestSyncLayout(t *testing.T) {
	var s Sync[*int]
	if off := unsafe.Offsetof(s.buffered); off >= 64 {
		t.Errorf("buffered at offset %d, want it on backlog's line: an empty poll reads one line", off)
	}
	if off := unsafe.Offsetof(s.lock); off != 64 {
		t.Errorf("first field after the published words at offset %d, want 64: they must own their line", off)
	}
	if sz := unsafe.Sizeof(s); sz != 256 {
		t.Errorf("Sync is %d bytes, want 256 (four lines, a line-aligned size class)", sz)
	}
	if sz := unsafe.Sizeof(runBuf[*int]{}); sz != 192 {
		t.Errorf("runBuf is %d bytes, want 192 (three lines, a line-aligned size class)", sz)
	}
	for workers := 1; workers <= 8; workers++ {
		p := NewSync[*int](NewFIFO[*int](), workers, 1, 1, 2, Hooks{})
		if a := uintptr(unsafe.Pointer(p)) % 64; a != 0 {
			t.Fatalf("NewSync returned a scheduler %d bytes into a cache line", a)
		}
		if len(p.bufs) != workers {
			t.Fatalf("%d run buffers for %d workers", len(p.bufs), workers)
		}
		for w, b := range p.bufs {
			if a := uintptr(unsafe.Pointer(b)) % 64; a != 0 {
				t.Fatalf("run buffer %d of %d starts %d bytes into a cache line", w, workers, a)
			}
		}
	}
}
