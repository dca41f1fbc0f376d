package sched

import "testing"

// priOfInt reads the priority level a test encoded in the value's tens
// digit: value = pri*100 + seq.
func priOfInt(p *int) int { return *p / 100 }

func TestPriorityPopsHighestFirst(t *testing.T) {
	p := NewPriority[*int](func() Policy[*int] { return NewFIFO[*int]() }, priOfInt)
	vals := []int{1, 301, 102, 203, 4, 305}
	for i := range vals {
		p.Push(&vals[i])
	}
	want := []int{301, 305, 203, 102, 1, 4}
	for i, w := range want {
		got, ok := p.Pop(0)
		if !ok || *got != w {
			t.Fatalf("pop %d = %v,%v want %d", i, got, ok, w)
		}
	}
	if _, ok := p.Pop(0); ok {
		t.Fatal("pop from empty priority policy succeeded")
	}
	if p.Len() != 0 {
		t.Fatalf("Len = %d after drain", p.Len())
	}
}

func TestPriorityFIFOWithinLevel(t *testing.T) {
	p := NewPriority[*int](func() Policy[*int] { return NewFIFO[*int]() }, priOfInt)
	vals := []int{201, 202, 203}
	for i := range vals {
		p.Push(&vals[i])
	}
	for want := 201; want <= 203; want++ {
		got, ok := p.Pop(0)
		if !ok || *got != want {
			t.Fatalf("within-level order broken: got %v want %d", got, want)
		}
	}
}

func TestPriorityClamping(t *testing.T) {
	if ClampPriority(-3) != 0 {
		t.Fatal("negative priority not clamped to 0")
	}
	if ClampPriority(99) != PriorityLevels-1 {
		t.Fatal("oversized priority not clamped to the top level")
	}
	p := NewPriority[*int](func() Policy[*int] { return NewFIFO[*int]() }, priOfInt)
	v := 9900 // level 99: must not panic, lands on the top level
	p.Push(&v)
	got, ok := p.Pop(0)
	if !ok || got != &v {
		t.Fatal("clamped push lost the task")
	}
}

// TestPriorityCourtesySlot pins the anti-starvation bound: with level 3
// never emptying, a level-0 task must still be served within
// courtesyInterval+1 pops.
func TestPriorityCourtesySlot(t *testing.T) {
	p := NewPriority[*int](func() Policy[*int] { return NewFIFO[*int]() }, priOfInt)
	batch := 1
	p.Push(&batch)
	hi := make([]int, 4*courtesyInterval)
	for i := range hi {
		hi[i] = 300 + i%10
	}
	next := 0
	push := func() { p.Push(&hi[next]); next++ }
	for i := 0; i < courtesyInterval; i++ {
		push()
	}
	for i := 0; ; i++ {
		if i > courtesyInterval+1 {
			t.Fatalf("batch task not served within %d pops", courtesyInterval+1)
		}
		got, ok := p.Pop(0)
		if !ok {
			t.Fatal("pop failed with tasks queued")
		}
		if got == &batch {
			break
		}
		push() // keep the high level non-empty: sustained interactive load
	}
}

// TestPriorityCourtesyServesMidLevels pins the rotation of the
// courtesy slot: with level 3 under sustained load AND a standing
// level-0 backlog, a level-2 task must still be served within the
// rotation bound — a courtesy that always favoured the lowest
// non-empty level would starve the middle levels forever.
func TestPriorityCourtesyServesMidLevels(t *testing.T) {
	p := NewPriority[*int](func() Policy[*int] { return NewFIFO[*int]() }, priOfInt)
	mid := 201
	p.Push(&mid)
	low := make([]int, 0, 4096)
	hi := make([]int, 0, 4096)
	refill := func() {
		// Keep both the top level and level 0 non-empty at all times.
		for p.levels[3].Len() < 2 {
			hi = append(hi, 300)
			p.Push(&hi[len(hi)-1])
		}
		for p.levels[0].Len() < 2 {
			low = append(low, 0)
			p.Push(&low[len(low)-1])
		}
	}
	refill()
	bound := (PriorityLevels - 1) * (courtesyInterval + 1) * 2
	for i := 0; ; i++ {
		if i > bound {
			t.Fatalf("level-2 task not served within %d pops under level-3 load + level-0 backlog", bound)
		}
		got, ok := p.Pop(0)
		if !ok {
			t.Fatal("pop failed with tasks queued")
		}
		if got == &mid {
			break
		}
		refill()
	}
}

// TestPriorityLocalityComposition routes PushLocal through to per-level
// Locality policies: a high-priority remote task still beats a local
// low-priority one, while same-level tasks keep NUMA affinity.
func TestPriorityLocalityComposition(t *testing.T) {
	p := NewPriority[*int](func() Policy[*int] { return Policy[*int](NewLocality[*int](4, 2)) }, priOfInt)
	// Two level-0 tasks on nodes 0 and 1, one level-2 task on node 1.
	n0, n1, hi := 1, 2, 201
	p.PushLocal(&n0, 0)
	p.PushLocal(&n1, 1)
	p.PushLocal(&hi, 1)
	// Worker 0 (node 0): the elevated task wins despite being remote.
	if got, ok := p.Pop(0); !ok || got != &hi {
		t.Fatalf("pop = %v, want the elevated task", got)
	}
	// Then affinity: worker 0 prefers its own node's task.
	if got, ok := p.Pop(0); !ok || got != &n0 {
		t.Fatalf("pop = %v, want the node-0 task", got)
	}
	if got, ok := p.Pop(0); !ok || got != &n1 {
		t.Fatalf("pop = %v, want the node-1 task", got)
	}
}

// TestPrioritySyncSchedulerOrder drives the Priority policy through the
// synchronized scheduler: a later-added high-priority task is delivered
// before earlier low-priority ones once the buffers drain.
func TestPrioritySyncSchedulerOrder(t *testing.T) {
	pol := NewPriority[*int](func() Policy[*int] { return NewFIFO[*int]() }, priOfInt)
	s := NewSync[*int](Policy[*int](pol), 1, 1, 1, 64, Hooks{})
	vals := []int{1, 2, 3, 301}
	for i := range vals {
		s.Add(&vals[i], 0)
	}
	if got := s.Get(0); got == nil || *got != 301 {
		t.Fatalf("first Get = %v, want the priority task", got)
	}
	for want := 1; want <= 3; want++ {
		if got := s.Get(0); got == nil || *got != want {
			t.Fatalf("Get = %v, want %d", got, want)
		}
	}
	s.Stop()
}
