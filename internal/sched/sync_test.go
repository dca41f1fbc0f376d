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
