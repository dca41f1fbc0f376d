package sched

import (
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"
)

// TestSyncOverflowStress drives the insertion-overflow path of the
// synchronized scheduler as hard as it goes: one producer pushing
// through a two-entry insertion queue (so nearly every Add finds it
// full and drains through DTLock.TryLock) against a consumer that
// keeps stalling, which widens every window in which the two meet on
// the lock. The reported defect was a hang — producer spinning in Add
// on a full queue, consumer spinning in LockOrDelegate on a turn that
// never comes — so the test runs under a watchdog that dumps every
// goroutine instead of hanging the suite.
func TestSyncOverflowStress(t *testing.T) {
	total := 3_000_000
	if testing.Short() {
		total = 100_000
	}
	s := NewSync[*int](NewFIFO[*int](), 1, 1, 1, 2, Hooks{})
	var got atomic.Int64
	var item int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := 0; n < total; {
			if s.Get(0) != nil {
				n++
				got.Store(int64(n))
				continue
			}
			runtime.Gosched() // the deliberately slow consumer
		}
	}()
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		for i := 0; i < total; i++ {
			s.Add(&item, 1)
		}
	}()
	// Progress watchdog: no delivery for this long is a hang, however
	// slow the host.
	last, lastAt := int64(-1), time.Now()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			<-produced
			return
		case <-tick.C:
			if n := got.Load(); n != last {
				last, lastAt = n, time.Now()
			} else if time.Since(lastAt) > 20*time.Second {
				pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
				t.Fatalf("no task delivered for 20s after %d of %d: insertion-overflow hang", n, total)
			}
		}
	}
}
