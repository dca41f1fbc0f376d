package core

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// elasticRounds scales the park/wake stress volume: up under the CI
// stress matrix (REPRO_STRESS_ELASTIC=on), down under -short.
func elasticRounds(base int) int {
	if testing.Short() {
		return base / 4
	}
	if os.Getenv("REPRO_STRESS_ELASTIC") == "on" {
		return base * 5
	}
	return base
}

// waitStats polls the runtime's stats until cond accepts a snapshot.
func waitStats(t *testing.T, rt *Runtime, what string, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(rt.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: stats stuck at %+v", what, rt.Stats())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// newSpin is New with a worker idle spin budget of spin empty polls,
// lowered between build and start.
func newSpin(cfg Config, spin int) *Runtime {
	rt := build(cfg)
	rt.idleSpin = spin
	rt.start()
	return rt
}

// TestElasticParkIdle: an idle elastic pool parks every worker, and a
// submission into the fully parked pool still completes — the wake
// protocol recruits workers back on demand.
func TestElasticParkIdle(t *testing.T) {
	rt := newSpin(Config{Workers: 4}, 64)
	defer rt.Close()
	if err := rt.Run(func(*Ctx) {}); err != nil {
		t.Fatal(err)
	}
	waitStats(t, rt, "idle pool never fully parked", func(s Stats) bool {
		return s.Parked == 4
	})
	// Submit into the fully parked pool: the enqueue's WakeOne must
	// recruit a worker (the submitter goroutine does not help on Run).
	var ran atomic.Bool
	if err := rt.Run(func(*Ctx) { ran.Store(true) }); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("task submitted to a parked pool never ran")
	}
	s := rt.Stats()
	if s.Parks == 0 || s.Wakes == 0 {
		t.Fatalf("no park/wake traffic recorded: %+v", s)
	}
	if s.Workers != 4 {
		t.Fatalf("Stats().Workers = %d, want 4", s.Workers)
	}
}

// TestElasticCloseWhileParked: Close must release a fully parked pool
// (the stop flag alone is unobservable to a sleeping worker).
func TestElasticCloseWhileParked(t *testing.T) {
	rt := newSpin(Config{Workers: 4}, 64)
	if err := rt.Run(func(*Ctx) {}); err != nil {
		t.Fatal(err)
	}
	waitStats(t, rt, "pool never parked before Close", func(s Stats) bool {
		return s.Parked == 4
	})
	done := make(chan struct{})
	go func() { rt.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on a parked pool")
	}
}

// TestElasticDrainWhileParked: a task parked on an external event (a
// timer) completes — and releases its dependent successor — while every
// worker is asleep: the deferred release path's enqueue must wake the
// pool, and Drain must observe full quiescence.
func TestElasticDrainWhileParked(t *testing.T) {
	rt := newSpin(Config{Workers: 4}, 64)
	defer rt.Close()
	var x int
	var order atomic.Int32
	h := submitAny(rt, func(c *Ctx) (any, error) {
		c.Spawn(func(c *Ctx) {
			order.CompareAndSwap(0, 1)
			c.After(10 * time.Millisecond)
		}, Out(&x))
		c.Spawn(func(*Ctx) {
			// Runs only after the timer fires: by then the whole pool
			// has had 10ms of idleness to park into.
			order.CompareAndSwap(1, 2)
		}, In(&x))
		return nil, nil
	})
	if _, err := h.Wait(nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Drain(ctx); err != nil {
		t.Fatalf("Drain on a parked pool: %v", err)
	}
	if order.Load() != 2 {
		t.Fatalf("event-held chain ran out of order: %d", order.Load())
	}
}

// TestLoopRecruitsFromParkedPool: a taskloop submitted into a fully
// parked pool is shared. Its steal descriptors are ordinary tasks, so
// schedAdd's wake is the only thing that can recruit a second worker;
// if it did not, one worker would run every chunk.
func TestLoopRecruitsFromParkedPool(t *testing.T) {
	rt := newSpin(Config{Workers: 4}, 1)
	defer rt.Close()
	waitStats(t, rt, "idle pool never fully parked", func(s Stats) bool {
		return s.Parked == 4
	})
	ranOn := make([]atomic.Bool, rt.Slots())
	err := runLoop(rt, 0, 64, 1, func(c *Ctx, _, _ int) {
		ranOn[c.Worker()].Store(true)
		for start := time.Now(); time.Since(start) < 200*time.Microsecond; {
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	workers := 0
	for i := range ranOn {
		if ranOn[i].Load() {
			workers++
		}
	}
	if workers < 2 {
		t.Fatalf("a 64-chunk loop ran on %d worker(s), want more than one", workers)
	}
	waitStats(t, rt, "loop left queued work behind", func(s Stats) bool {
		return s.Pending == 0
	})
}

// TestElasticLostWakeupStorm hammers the park/wake edge across the
// scheduler designs: tiny spin budgets force workers to park between
// the bursts, so every submission round races the pre-sleep recheck
// against the producer's wake. A single lost wakeup leaves a round's
// tasks stranded with the pool asleep and the watchdog fires.
func TestElasticLostWakeupStorm(t *testing.T) {
	for _, sk := range schedKindsUnderStress() {
		t.Run(sk.testName(), func(t *testing.T) {
			rt := newSpin(Config{Workers: 4, Scheduler: sk}, 16)
			defer rt.Close()
			rounds := elasticRounds(400)
			var ran atomic.Int64
			watchdog := time.AfterFunc(60*time.Second, func() {
				panic(fmt.Sprintf("elastic storm wedged: %+v", rt.Stats()))
			})
			defer watchdog.Stop()
			for r := 0; r < rounds; r++ {
				var x int
				h := submitAny(rt, func(c *Ctx) (any, error) {
					for i := 0; i < 4; i++ {
						c.Spawn(func(*Ctx) { ran.Add(1) }, Out(&x))
					}
					return nil, nil
				})
				if _, err := h.Wait(nil); err != nil {
					t.Fatal(err)
				}
				if r%8 == 7 {
					// A breather long past the spin budget, so the next
					// round's enqueue hits parked workers, not warm ones.
					time.Sleep(500 * time.Microsecond)
				}
			}
			if got := ran.Load(); got != int64(4*rounds) {
				t.Fatalf("ran %d of %d tasks", got, 4*rounds)
			}
		})
	}
}
