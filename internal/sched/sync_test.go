package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSyncEmptyPollTakesNoTicket: an empty scheduler answers Get and
// TryGet without touching its lock. The test owns the lock for the whole
// call, so a poll that takes a ticket waits on it forever.
func TestSyncEmptyPollTakesNoTicket(t *testing.T) {
	s := NewSync[*int](NewFIFO[*int](), 2, 1, 2, 8, Hooks{})
	// A scheduler that has filled and emptied run buffers is as empty as
	// a fresh one.
	vals := make([]int, 4*runBatch)
	for i := range vals {
		s.Add(&vals[i], 2)
	}
	for i := range vals {
		if s.Get(i%2) == nil {
			t.Fatalf("Get %d of %d returned nothing", i, len(vals))
		}
	}
	if !s.lock.TryLock() {
		t.Fatal("a fresh scheduler's lock is taken")
	}
	defer s.lock.Unlock() // releases a poller that did take a ticket
	polled := make(chan *int, 2)
	go func() {
		polled <- s.Get(0)
		polled <- s.TryGet(1)
	}()
	for i := 0; i < 2; i++ {
		select {
		case p := <-polled:
			if p != nil {
				t.Fatalf("empty scheduler returned %v", p)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a poll of an empty scheduler waited for the scheduler lock")
		}
	}
}

// TestSyncOverflowDrainPublishes: the third Add through a two-entry
// insertion queue finds it full and drains it into the policy itself.
// That tenure must publish the backlog like Get's does — between the
// drain and the retried push the tasks are in the policy only — and
// nothing may be lost on the way out.
func TestSyncOverflowDrainPublishes(t *testing.T) {
	s := NewSync[*int](NewFIFO[*int](), 1, 1, 1, 2, Hooks{})
	vals := []int{0, 1, 2}
	for i := range vals {
		s.Add(&vals[i], 1)
	}
	if !s.backlog.Load() {
		t.Fatal("overflow drain moved tasks into the policy without publishing the backlog")
	}
	for want := range vals {
		if p := s.Get(0); p == nil || *p != want {
			t.Fatalf("Get %d returned %v", want, p)
		}
	}
	if p := s.Get(0); p != nil {
		t.Fatalf("drained scheduler returned %v", *p)
	}
	if s.backlog.Load() || !s.idle() {
		t.Fatal("drained scheduler still publishes a backlog")
	}
}

// TestSyncEmptyPollHammer races producers against pollers that take the
// ticket-free path whenever the scheduler looks empty: every item must be
// received exactly once, and the pollers must drain the scheduler to the
// last item — a published "empty" over a non-empty policy would leave
// them spinning on it until the watchdog fires. Insertion queues of four
// entries keep the overflow drain in play.
func TestSyncEmptyPollHammer(t *testing.T) {
	const producers, pollers, perProducer = 2, 3, 20000
	const total = producers * perProducer
	s := NewSync[*int32](NewFIFO[*int32](), pollers, producers, 2, 4, Hooks{})
	seen := make([]int32, total)
	var received atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p * perProducer; i < (p+1)*perProducer; i++ {
				s.Add(&seen[i], pollers+p)
			}
		}(p)
	}
	for id := 0; id < pollers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for received.Load() < total {
				if p := s.Get(id); p != nil {
					atomic.AddInt32(p, 1)
					received.Add(1)
					continue
				}
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}(id)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		close(stop)
		<-done
		t.Fatalf("pollers received %d of %d items and then saw an empty scheduler", received.Load(), total)
	}
	for i := range seen {
		if n := atomic.LoadInt32(&seen[i]); n != 1 {
			t.Fatalf("item %d received %d times", i, n)
		}
	}
}

// fill adds n items to s from the submitter slot and returns them.
func fill(s *Sync[*int], submitter, n int) []int {
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i
		s.Add(&vals[i], submitter)
	}
	return vals
}

// TestSyncFillThreshold: the lock owner batches only over a backlog of
// 2*runBatch beyond its own task and only for a worker. Elevated
// work elsewhere (the runtime's hook) does not stop a fill — this policy
// holds none — it only sends every later Get through the lock, where the
// buffer is consumed in the same order.
func TestSyncFillThreshold(t *testing.T) {
	const big = 1 + 2*runBatch
	cases := []struct {
		name     string
		items    int
		hooks    Hooks
		worker   int
		buffered int32
	}{
		{"at the threshold", big, Hooks{}, 0, 1},
		{"one short", big - 1, Hooks{}, 0, 0},
		{"elevated elsewhere", 4 * runBatch, Hooks{Elevated: func() bool { return true }}, 0, 1},
		{"not a worker", 4 * runBatch, Hooks{}, 3, 0},
	}
	for _, tc := range cases {
		s := NewSync[*int](NewFIFO[*int](), 2, 2, 1, 256, tc.hooks)
		vals := fill(s, 2, tc.items)
		if p := s.Get(tc.worker); p != &vals[0] {
			t.Fatalf("%s: first Get returned %v", tc.name, p)
		}
		if got := s.buffered.Load(); got != tc.buffered {
			t.Fatalf("%s: %d buffers filled, want %d", tc.name, got, tc.buffered)
		}
		if want := tc.items - 1 - int(tc.buffered)*runBatch; s.inner.Len() != want {
			t.Fatalf("%s: policy holds %d after the first Get, want %d", tc.name, s.inner.Len(), want)
		}
		// Whatever was batched, every item comes out once and in order.
		for i := 1; i < tc.items; i++ {
			if p := s.Get(tc.worker); p != &vals[i] {
				t.Fatalf("%s: Get %d returned %v", tc.name, i, p)
			}
		}
		if p := s.Get(tc.worker); p != nil || s.buffered.Load() != 0 || !s.idle() {
			t.Fatalf("%s: drained scheduler returned %v, buffered %d", tc.name, p, s.buffered.Load())
		}
	}
}

// TestSyncElevatedNeverBuffered: with an elevated task in the policy the
// owner fills nothing, and an elevated task that arrives while a buffer
// is part-consumed is served before the rest of it, because the
// runtime's hook closes the buffer.
func TestSyncElevatedNeverBuffered(t *testing.T) {
	level := func(p *int) int { return *p >> 16 }
	mk := func() Policy[*int] { return NewFIFO[*int]() }
	s := NewSync[*int](NewPriority(mk, level), 1, 1, 1, 256, Hooks{})
	vals := fill(s, 1, 4*runBatch)
	hi, hi2 := 3<<16, 3<<16
	s.Add(&hi, 1)
	s.Add(&hi2, 1)
	if p := s.Get(0); p != &hi {
		t.Fatalf("first Get returned %v, want the first elevated task", p)
	}
	if s.buffered.Load() != 0 {
		t.Fatal("a buffer was filled while the policy held an elevated task")
	}
	if p := s.Get(0); p != &hi2 {
		t.Fatalf("second Get returned %v, want the second elevated task", p)
	}
	if p := s.Get(0); p != &vals[0] || s.buffered.Load() != 1 {
		t.Fatalf("third Get returned %v with %d buffers, want item 0 and a buffer in use", p, s.buffered.Load())
	}

	// The buffer stays closed while the hook reports elevated work, and
	// opens again after.
	var elevated atomic.Bool
	s = NewSync[*int](NewPriority(mk, level), 1, 1, 1, 256, Hooks{Elevated: elevated.Load})
	vals = fill(s, 1, 4*runBatch)
	for i := 0; i < 4; i++ {
		if p := s.Get(0); p != &vals[i] {
			t.Fatalf("Get %d returned %v", i, p)
		}
	}
	elevated.Store(true)
	s.Add(&hi, 1)
	if p := s.Get(0); p != &hi {
		t.Fatalf("Get after an elevated Add returned %v, want the elevated task ahead of the buffered ones", p)
	}
	// Elevated work elsewhere (the hook still says so, this policy holds
	// none): the buffer is consumed under the lock, in order.
	if p := s.Get(0); p != &vals[4] {
		t.Fatalf("Get with elevated work elsewhere returned %v, want buffered item 4", p)
	}
	elevated.Store(false)
	for i := 5; i < len(vals); i++ {
		if p := s.Get(0); p != &vals[i] {
			t.Fatalf("Get %d returned %v", i, p)
		}
	}
}

// TestSyncBufferCourtesy: sustained elevated work cannot park a buffered
// task forever — every courtesyInterval-th pop over a non-empty buffer
// goes to the buffer.
func TestSyncBufferCourtesy(t *testing.T) {
	level := func(p *int) int { return *p >> 16 }
	var elevated atomic.Bool
	s := NewSync[*int](NewPriority(func() Policy[*int] { return NewFIFO[*int]() }, level), 1, 1, 1, 256, Hooks{Elevated: elevated.Load})
	vals := fill(s, 1, 4*runBatch)
	if p := s.Get(0); p != &vals[0] || s.buffered.Load() != 1 {
		t.Fatalf("first Get returned %v with %d buffers", p, s.buffered.Load())
	}
	elevated.Store(true)
	his := make([]int, 4*courtesyInterval)
	for i := range his {
		his[i] = 3 << 16
	}
	for i := 0; i < courtesyInterval; i++ {
		s.Add(&his[2*i], 1)
		s.Add(&his[2*i+1], 1) // keeps an elevated task queued after the pop
		if p := s.Get(0); level(p) != 3 {
			t.Fatalf("Get %d under elevated load returned level-0 item %d", i, *p)
		}
	}
	if p := s.Get(0); p != &vals[1] {
		t.Fatalf("Get after %d elevated pops returned %v, want buffered item 1", courtesyInterval, p)
	}
}

// TestSyncPerSlotOrder: two workers polling in turn each receive their
// items in insertion order across any number of refills, every item is
// received once, and a non-worker slot (no buffer) can still drain what
// the workers buffered.
func TestSyncPerSlotOrder(t *testing.T) {
	const n = 20 * runBatch
	s := NewSync[*int](NewFIFO[*int](), 2, 2, 1, 1024, Hooks{})
	fill(s, 2, n)
	seen := make([]bool, n)
	last := [2]int{-1, -1}
	got := 0
	for ; got < n/2; got++ {
		w := got % 2
		p := s.Get(w)
		if p == nil {
			t.Fatalf("Get %d returned nothing", got)
		}
		if *p <= last[w] || seen[*p] {
			t.Fatalf("worker %d received item %d after item %d (seen before: %v)", w, *p, last[w], seen[*p])
		}
		last[w], seen[*p] = *p, true
	}
	if s.buffered.Load() == 0 {
		t.Fatal("no buffer in use half-way through a backlog of 20 batches")
	}
	// Worker 1 stops polling; worker 0 and the spare slot take the rest,
	// worker 1's buffer included.
	for ; got < n; got++ {
		id := []int{0, 3}[got%2]
		p := s.Get(id)
		if p == nil {
			t.Fatalf("Get %d returned nothing with %d buffers non-empty", got, s.buffered.Load())
		}
		if seen[*p] {
			t.Fatalf("item %d received twice", *p)
		}
		seen[*p] = true
	}
	if p := s.Get(0); p != nil || s.buffered.Load() != 0 || !s.idle() {
		t.Fatalf("drained scheduler returned %v, buffered %d", p, s.buffered.Load())
	}
}

// TestSyncRunBufferHammer: one producer, P worker consumers and forced
// thefts, exactly once over a million items. Worker 0 is the victim: it
// never consumes what it buffered — it stalls until the buffer is empty —
// and the producer waits for every burst to be received before the next,
// so each fill of worker 0 must be reclaimed by the others (takes racing
// takes on one buffer word, under and outside the lock).
func TestSyncRunBufferHammer(t *testing.T) {
	const consumers, burst = 3, 8 * runBatch
	total := 1_000_000 / burst * burst
	if testing.Short() {
		total /= 10
	}
	s := NewSync[*int32](NewFIFO[*int32](), consumers, 1, 1, 2*burst, Hooks{})
	seen := make([]int32, total)
	var received, stolen atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1 + consumers)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if i%burst == 0 {
				for received.Load() < int64(i) && !failed.Load() {
					runtime.Gosched()
				}
			}
			s.Add(&seen[i], consumers)
		}
	}()
	for id := 0; id < consumers; id++ {
		go func() {
			defer wg.Done()
			for received.Load() < int64(total) && !failed.Load() {
				p := s.Get(id)
				if p == nil {
					runtime.Gosched()
					continue
				}
				atomic.AddInt32(p, 1)
				received.Add(1)
				if id != 0 {
					continue
				}
				if n := s.bufs[0].state.Load() & 0xffff; n != 0 {
					stolen.Add(int64(n))
					for s.bufs[0].state.Load()&0xffff != 0 && !failed.Load() {
						runtime.Gosched()
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		failed.Store(true)
		<-done
		t.Fatalf("received %d of %d items with %d buffers non-empty: a buffered item was stranded",
			received.Load(), total, s.buffered.Load())
	}
	for i := range seen {
		if n := atomic.LoadInt32(&seen[i]); n != 1 {
			t.Fatalf("item %d received %d times", i, n)
		}
	}
	if stolen.Load() == 0 {
		t.Fatal("worker 0 never stalled over a filled buffer: the hammer forced no theft")
	}
	if s.buffered.Load() != 0 || !s.idle() {
		t.Fatalf("drained scheduler still counts %d non-empty buffers", s.buffered.Load())
	}
	t.Logf("%d items, %d reclaimed from the stalled worker's buffer", total, stolen.Load())
}
