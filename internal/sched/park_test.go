package sched

import (
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitParked blocks until at least n workers are visibly parked.
func waitParked(t *testing.T, p *Parker, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.Parked() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d workers parked", p.Parked(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestParkerWakeOne: a parked worker is released by exactly one wake.
func TestParkerWakeOne(t *testing.T) {
	p := NewParker(2, 1, nil)
	done := make(chan struct{})
	go func() {
		p.Park(0, func() bool { return false })
		close(done)
	}()
	// Wait until the worker is visibly parked, then wake it.
	waitParked(t, p, 1)
	p.WakeOne(0, 1)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("parked worker never woke")
	}
	if got := p.Parked(); got != 0 {
		t.Fatalf("Parked() = %d after wake, want 0", got)
	}
	if p.Parks() != 1 || p.Wakes() != 1 {
		t.Fatalf("parks/wakes = %d/%d, want 1/1", p.Parks(), p.Wakes())
	}
}

// TestParkerRecheckCancels: a recheck that reports work cancels the
// park without blocking and without counting a park.
func TestParkerRecheckCancels(t *testing.T) {
	p := NewParker(1, 1, nil)
	done := make(chan struct{})
	go func() {
		p.Park(0, func() bool { return true })
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Park with positive recheck blocked")
	}
	if p.Parked() != 0 || p.Parks() != 0 {
		t.Fatalf("cancelled park left state: parked=%d parks=%d", p.Parked(), p.Parks())
	}
}

// TestParkerWakeAll releases every parked worker at once.
func TestParkerWakeAll(t *testing.T) {
	const n = 8
	p := NewParker(n, 1, nil)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p.Park(id, func() bool { return false })
		}(id)
	}
	waitParked(t, p, n)
	p.WakeAll()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("WakeAll left workers parked")
	}
}

// TestParkerDomainWake: a home-domain wake prefers the domain's own
// parked worker; with the home domain empty the wake falls through to a
// remote domain's parked worker.
func TestParkerDomainWake(t *testing.T) {
	// Workers 0,1 -> domain 0; workers 2,3 -> domain 1 (contiguous, as
	// NewParker requires).
	domOf := func(id int) int { return id / 2 }
	p := NewParker(4, 2, domOf)
	woke := make(chan int, 4)
	park := func(id int) {
		go func() {
			p.Park(id, func() bool { return false })
			woke <- id
		}()
	}
	park(1)
	park(2)
	waitParked(t, p, 2)
	if p.ParkedIn(0) != 1 || p.ParkedIn(1) != 1 {
		t.Fatalf("ParkedIn = %d/%d, want 1/1", p.ParkedIn(0), p.ParkedIn(1))
	}
	// Domain 1's wake must claim its own worker 2, not domain 0's.
	p.WakeOne(1, 1)
	if id := <-woke; id != 2 {
		t.Fatalf("home wake released worker %d, want 2", id)
	}
	// Domain 1 now has nobody parked: its next wake must fall through to
	// domain 0's worker 1.
	p.WakeOne(1, 1)
	if id := <-woke; id != 1 {
		t.Fatalf("cross-domain wake released worker %d, want 1", id)
	}
	if p.Parked() != 0 {
		t.Fatalf("Parked() = %d, want 0", p.Parked())
	}
	if p.WakesIn(1) != 1 || p.WakesIn(0) != 1 {
		t.Fatalf("WakesIn = %d/%d, want 1/1", p.WakesIn(0), p.WakesIn(1))
	}
}

// TestParkerWakeThrottle: once the woken hint covers the pending count,
// further WakeOne calls are no-ops; a larger pending count or a
// throttle-disabled call (pending < 0) still wakes. The test marks
// slots parked directly (white-box) so no goroutine consumes tokens
// between assertions — every step is deterministic.
func TestParkerWakeThrottle(t *testing.T) {
	p := NewParker(4, 1, nil)
	for i := range p.slots {
		p.slots[i].state.Store(WorkerParked)
		p.nparked.Add(1)
		p.doms[0].nparked.Add(1)
	}
	p.WakeOne(0, 1) // claims one worker: woken 0 -> 1
	if p.Woken(0) != 1 || p.Wakes() != 1 {
		t.Fatalf("after first wake: woken=%d wakes=%d, want 1/1", p.Woken(0), p.Wakes())
	}
	p.WakeOne(0, 1) // woken(1) covers pending(1): throttled no-op
	if p.Woken(0) != 1 || p.Wakes() != 1 || p.Parked() != 3 {
		t.Fatalf("throttled wake acted: woken=%d wakes=%d parked=%d",
			p.Woken(0), p.Wakes(), p.Parked())
	}
	p.WakeOne(0, 2) // pending(2) > woken(1): claims another
	if p.Wakes() != 2 {
		t.Fatalf("uncovered wake throttled: wakes=%d, want 2", p.Wakes())
	}
	p.WakeOne(0, -1) // throttle disabled: must claim another
	if p.Wakes() != 3 {
		t.Fatalf("pending<0 wake throttled: wakes=%d, want 3", p.Wakes())
	}
	p.WakeOne(0, 4) // pending(4) > woken(3): claims the last worker
	if p.Wakes() != 4 || p.Parked() != 0 {
		t.Fatalf("uncovered wake throttled: wakes=%d parked=%d", p.Wakes(), p.Parked())
	}
	p.WakeOne(0, 100) // nobody parked: fast-path no-op, must not panic
}

// TestParkerLostWakeupHammer drives the full check-then-park protocol
// under contention: workers consume from a shared counter, parking when
// it is empty; producers increment it and call WakeOne, exactly the
// runtime's enqueue edge. Every produced item must be consumed — a
// single lost wakeup strands items with every worker asleep and the
// test times out.
func TestParkerLostWakeupHammer(t *testing.T) {
	const workers = 4
	items := 20_000
	if testing.Short() {
		items = 4_000
	}
	if os.Getenv("REPRO_STRESS_ELASTIC") == "on" {
		items *= 5
	}
	p := NewParker(workers, 1, nil)
	var queue, consumed atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for {
				if v := queue.Load(); v > 0 && queue.CompareAndSwap(v, v-1) {
					consumed.Add(1)
					continue
				}
				if stop.Load() {
					return
				}
				p.Park(id, func() bool { return queue.Load() > 0 || stop.Load() })
			}
		}(id)
	}
	const producers = 2
	var pwg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		pwg.Add(1)
		go func(pr int) {
			defer pwg.Done()
			n := items / producers
			if pr == 0 {
				n += items % producers
			}
			for i := 0; i < n; i++ {
				pending := queue.Add(1)
				p.WakeOne(0, pending)
				if i%512 == 511 {
					// A breather lets workers drain and park, so the next
					// burst races the park edge rather than a warm loop.
					time.Sleep(50 * time.Microsecond)
				}
			}
		}(pr)
	}
	pwg.Wait()
	deadline := time.Now().Add(30 * time.Second)
	for consumed.Load() < int64(items) {
		if time.Now().After(deadline) {
			t.Fatalf("lost wakeup: consumed %d of %d items (parked=%d, queue=%d)",
				consumed.Load(), items, p.Parked(), queue.Load())
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	p.WakeAll()
	wg.Wait()
	if queue.Load() != 0 {
		t.Fatalf("queue = %d after drain, want 0", queue.Load())
	}
}
