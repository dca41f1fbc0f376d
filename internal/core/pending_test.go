package core

import (
	"os"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"
)

// watchdog runs f and fails the test with a dump of every goroutine if
// progress() stops changing for stall: the stress tests below exist
// for defects whose symptom is a hang, and a hung test binary reports
// nothing. f runs on its own goroutine; on a stall it is abandoned.
func watchdog(t *testing.T, stall time.Duration, progress func() int64, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	last, lastAt := int64(-1), time.Now()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			if n := progress(); n != last {
				last, lastAt = n, time.Now()
			} else if time.Since(lastAt) > stall {
				pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
				t.Fatalf("no progress for %v (stuck at %d)", stall, n)
			}
		}
	}
}

// TestShardedPendingExact: enqueue from one slot, take from another —
// the two halves of the count live on different slots' lines — and the
// per-domain and flat Pending stay exact at quiescence and never go
// negative, on a built-but-not-started runtime like the shed units.
func TestShardedPendingExact(t *testing.T) {
	rt := build(Config{
		Workers: 4, Domains: 2, ShedBatch: 2,
		Scheduler: SchedCentralPTLock, IdleSpin: -1,
	})
	defer rt.Close()
	check := func(when string, want0, want1 int64) {
		t.Helper()
		s := rt.Stats()
		if s.Domains[0].Pending != want0 || s.Domains[1].Pending != want1 || s.Pending != want0+want1 {
			t.Fatalf("%s: pending = %d (domains %d, %d), want %d (%d, %d)", when,
				s.Pending, s.Domains[0].Pending, s.Domains[1].Pending, want0+want1, want0, want1)
		}
	}
	const n = 6
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i].alive.Store(1)
		rt.schedAdd(&tasks[i], 2+i%2) // slots 2 and 3 → domain 1
	}
	check("after enqueue", 0, n)

	// Slot 1 (domain 0) takes straight from domain 1's scheduler: the
	// add was booked on slots 2/3, the take on slot 1.
	d1 := &rt.domains[1]
	for i := 0; i < 2; i++ {
		if rt.schedTook(d1.sched.TryGet(1), 1, 1) == nil {
			t.Fatal("remote take came back empty")
		}
	}
	check("after remote takes", 0, n-2)

	// shedTake still sees the remote backlog through the summed count,
	// steals its batch and re-homes all but the first.
	victim := 0
	if rt.shedTake(0, 0, &victim) == nil {
		t.Fatal("shedTake saw no backlog in a domain holding 4 tasks")
	}
	check("after shed cycle", 1, n-4)

	// A stale promotion duplicate is booked as taken like any entry.
	tasks[n-1].qstate.Store(0)
	for slot := 0; ; slot = (slot + 1) % 4 {
		raw := d1.sched.TryGet(slot)
		if raw == nil {
			break
		}
		rt.schedTook(raw, 1, slot)
	}
	if rt.schedTook(rt.domains[0].sched.TryGet(0), 0, 0) == nil {
		t.Fatal("re-homed task missing from the thief's domain")
	}
	check("drained", 0, 0)
}

// TestParkWakePingPong: one producer hands single tasks to a pool that
// parks the instant it idles (IdleSpin 1: one empty poll; 0 would
// select the default). The producer is an external submitter blocked
// in Run, so it never helps: every hand-off needs a worker, and races
// that worker's pre-park recheck against the producer's parked-count
// read. With the pending count now a sum over per-slot halves, a wrong
// read order (added before taken) could let the recheck miss a queued
// task and strand it. A lost wake hangs Run; the watchdog turns that
// into a failure with stacks.
func TestParkWakePingPong(t *testing.T) {
	rounds := elasticRounds(1_000_000)
	rt := New(Config{Workers: 2, IdleSpin: 1})
	defer rt.Close()
	var handed atomic.Int64
	watchdog(t, 20*time.Second, handed.Load, func() {
		for i := 0; i < rounds; i++ {
			if err := rt.Run(func(*Ctx) { handed.Add(1) }); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if got := handed.Load(); got != int64(rounds) {
		t.Fatalf("%d of %d hand-offs ran", got, rounds)
	}
	s := rt.Stats()
	if s.Pending != 0 {
		t.Fatalf("pending = %d at quiescence", s.Pending)
	}
	if s.Wakes == 0 {
		t.Fatalf("no wake delivered in %d hand-offs: the pool never parked", rounds)
	}
	t.Logf("%d hand-offs: %d parks, %d wakes", rounds, s.Parks, s.Wakes)
}

// TestSpawnFlatOverflowStress is the runtime-level half of the
// insertion-overflow regression (the scheduler-level half is
// sched.TestSyncOverflowStress): the benchmark's spawn_flat shape — one
// creator, access-free tasks, a Taskwait per batch — on two workers
// with a two-entry insertion queue, so the creator lives on the
// TryLock drain path while the other worker takes tickets.
func TestSpawnFlatOverflowStress(t *testing.T) {
	if testing.Short() {
		t.Skip("20 M spawns; skipped under -short")
	}
	const total, batch = 20 << 20, 1024
	rt := New(Config{Workers: 2, SPSCCap: 2})
	defer rt.Close()
	var ran, batches atomic.Int64
	watchdog(t, 30*time.Second, batches.Load, func() {
		err := rt.Run(func(c *Ctx) {
			for b := 0; b < total; b += batch {
				for i := 0; i < batch; i++ {
					c.Spawn(func(*Ctx) { ran.Add(1) })
				}
				c.Taskwait()
				batches.Add(1)
			}
		})
		if err != nil {
			t.Error(err)
		}
	})
	if got := ran.Load(); got != total {
		t.Fatalf("%d of %d tasks ran", got, total)
	}
}
