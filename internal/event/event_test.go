package event

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWheelFiresNoEarlierThanDelay(t *testing.T) {
	w := NewWheel(time.Millisecond, 8)
	defer w.Stop()
	const d = 10 * time.Millisecond
	start := time.Now()
	done := make(chan time.Duration, 1)
	w.After(d, func() { done <- time.Since(start) })
	select {
	case got := <-done:
		if got < d {
			t.Fatalf("timer fired after %v, before the requested %v", got, d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestWheelManyTimersAcrossRounds(t *testing.T) {
	// Many timers sharing thirteen deadlines, fired by the fallback
	// goroutine alone (nobody polls): every callback fires exactly once.
	w := NewWheel(0, 0)
	defer w.Stop()
	const n = 500
	var fired atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		d := time.Duration(i%13) * 300 * time.Microsecond
		w.After(d, func() { fired.Add(1); wg.Done() })
	}
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d/%d timers fired", fired.Load(), n)
	}
	if fired.Load() != n {
		t.Fatalf("fired %d callbacks, want %d", fired.Load(), n)
	}
}

func TestWheelAfterFromCallback(t *testing.T) {
	// Callbacks may schedule further timers (the lock is not held while
	// firing).
	w := NewWheel(200*time.Microsecond, 8)
	defer w.Stop()
	done := make(chan struct{})
	w.After(time.Millisecond, func() {
		w.After(time.Millisecond, func() { close(done) })
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("chained timer never fired")
	}
}

func TestWheelAfterOnStoppedWheelStillRuns(t *testing.T) {
	w := NewWheel(time.Millisecond, 8)
	w.Stop()
	w.Stop() // idempotent
	done := make(chan struct{})
	w.After(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("callback on stopped wheel never ran")
	}
}

func TestSlotsExclusiveAndInRange(t *testing.T) {
	const base, n = 10, 3
	s := NewSlots(base, n)
	if s.base != base || len(s.mus) != n {
		t.Fatalf("base/len = %d/%d, want %d/%d", s.base, len(s.mus), base, n)
	}
	var held [n]atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				slot := s.Acquire()
				if slot < base || slot >= base+n {
					t.Errorf("slot %d out of range [%d, %d)", slot, base, base+n)
				}
				if !held[slot-base].CompareAndSwap(false, true) {
					t.Errorf("slot %d handed out twice concurrently", slot)
				}
				held[slot-base].Store(false)
				s.Release(slot)
			}
		}()
	}
	wg.Wait()
}

// TestSlotsTryAcquire: the non-blocking acquisition hands out the lowest
// free index and reports exhaustion instead of waiting.
func TestSlotsTryAcquire(t *testing.T) {
	s := NewSlots(10, 2)
	a, b := s.TryAcquire(), s.TryAcquire()
	if a != 10 || b != 11 {
		t.Fatalf("TryAcquire = %d, %d, want 10, 11", a, b)
	}
	if got := s.TryAcquire(); got != -1 {
		t.Fatalf("TryAcquire on an exhausted pool = %d, want -1", got)
	}
	s.Release(a)
	if got := s.TryAcquire(); got != a {
		t.Fatalf("TryAcquire after Release = %d, want %d", got, a)
	}
}
