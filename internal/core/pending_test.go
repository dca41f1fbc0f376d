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

// TestShardedPendingExact: enqueue from two slots, take from a third —
// the two halves of the count live on different slots' lines — and
// Stats().Pending stays exact at quiescence and never goes negative, on
// a built-but-not-started runtime (no workers racing the test). A stale
// promotion duplicate is booked as taken like any entry and dissolves.
func TestShardedPendingExact(t *testing.T) {
	rt := build(Config{Workers: 4, Scheduler: SchedCentralPTLock})
	defer rt.Close()
	check := func(when string, want int64) {
		t.Helper()
		if got := rt.Stats().Pending; got != want {
			t.Fatalf("%s: pending = %d, want %d", when, got, want)
		}
	}
	const n = 6
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i].alive.Store(1)
		rt.schedAdd(&tasks[i], 2+i%2) // booked on slots 2 and 3
	}
	check("after enqueue", n)

	// Slot 1 takes: the add was booked on slots 2/3, the take on slot 1.
	for i := 0; i < 2; i++ {
		if rt.schedTook(rt.sched.TryGet(1), 1) == nil {
			t.Fatal("take came back empty")
		}
	}
	check("after takes", n-2)

	// The last task was already claimed through another entry (qstate 0):
	// its queue entry is a stale promotion duplicate.
	tasks[n-1].qstate.Store(0)
	claimed := 0
	for slot := 0; ; slot = (slot + 1) % 4 {
		raw := rt.sched.TryGet(slot)
		if raw == nil {
			break
		}
		if rt.schedTook(raw, slot) != nil {
			claimed++
		} else if raw != &tasks[n-1] {
			t.Fatalf("live task %p dissolved as a stale duplicate", raw)
		}
	}
	if claimed != n-3 {
		t.Fatalf("claimed %d of the remaining tasks, want %d (the stale entry must dissolve)", claimed, n-3)
	}
	check("drained", 0)
}

// TestParkWakePingPong: one producer hands single tasks to a pool that
// parks the instant it idles (a spin budget of one empty poll). The
// producer is an external submitter blocked in Run, so it never helps:
// every hand-off needs a worker, and races that worker's pre-park
// recheck against the producer's parked-count read. With the pending count now a sum over per-slot halves, a wrong
// read order (added before taken) could let the recheck miss a queued
// task and strand it. A lost wake hangs Run; the watchdog turns that
// into a failure with stacks.
func TestParkWakePingPong(t *testing.T) {
	rounds := elasticRounds(1_000_000)
	rt := newSpin(Config{Workers: 2}, 1)
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
