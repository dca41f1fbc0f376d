package core

import (
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The counting-protocol tests: a body counts the children it spawns or
// offers on its own thread (Task.spawned, alive biased by aliveBias)
// and folds the count into alive at Taskwait and when it returns. Each
// checks that a task completes only after its last child, and a root
// exactly once — LiveTasks, which counts submissions, returns to 0,
// where a second root completion would take it below.

// countingRuntime returns a runtime the test closes only if it passed:
// a broken count leaves a task that never completes, and Close would
// wait for it forever.
func countingRuntime(t *testing.T, cfg Config) *Runtime {
	rt := New(cfg)
	t.Cleanup(func() {
		if !t.Failed() {
			rt.Close()
		}
	})
	return rt
}

// waitDone fails the test unless h completes within half a minute.
func waitDone(t *testing.T, h *Handle, what string) {
	t.Helper()
	select {
	case <-h.Done():
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("%s never completed\n%s", what, buf[:runtime.Stack(buf, true)])
	}
}

// TestSpawnCountNoTaskwait: a body spawns three windows of children,
// which complete on the other worker (and inside its help episodes)
// while it spawns, and returns without a Taskwait. Its future resolves
// only once every child ran, and the runtime ends with no live task.
func TestSpawnCountNoTaskwait(t *testing.T) {
	for _, workers := range []int{1, 2} {
		rt := countingRuntime(t, Config{Workers: workers})
		const n = 3 * spawnWindow
		var ran atomic.Int64
		f := submitAny(rt, func(c *Ctx) (any, error) {
			p := goAny(c, func(c *Ctx) (any, error) {
				for range n {
					c.Spawn(func(*Ctx) { ran.Add(1) })
				}
				return nil, nil
			})
			if err := c.Await(&p.Handle); err != nil {
				return nil, err
			}
			return ran.Load(), nil
		})
		waitDone(t, &f.Handle, "the root")
		if f.err != nil {
			t.Fatal(f.err)
		}
		if seen := f.val.(int64); seen != n {
			t.Fatalf("workers=%d: the spawning task completed after %d of its %d children", workers, seen, n)
		}
		waitQuiescent(t, rt)
	}
}

// TestSpawnCountTaskwaitCycles: spawn, wait, spawn again. Each Taskwait
// returns with its own batch done, and a Taskwait with nothing spawned
// since the last one returns at once: on one worker it runs nothing,
// not even a root that is ready in the scheduler.
func TestSpawnCountTaskwaitCycles(t *testing.T) {
	rt := countingRuntime(t, Config{Workers: 1})
	var other atomic.Bool
	var f *anyFuture
	root := submit(rt, func(c *Ctx) {
		for round, n := range []int{1, 100, spawnWindow + 7, 3, 2 * spawnWindow} {
			var ran atomic.Int64
			for range n {
				c.Spawn(func(*Ctx) { ran.Add(1) })
			}
			c.Taskwait()
			if got := ran.Load(); got != int64(n) {
				t.Errorf("round %d: Taskwait returned with %d of %d children run", round, got, n)
			}
			if round == 0 {
				f = submitAny(rt, func(*Ctx) (any, error) { other.Store(true); return nil, nil })
				c.Taskwait()
				if other.Load() {
					t.Error("a Taskwait with no child in flight ran another root")
				}
			}
		}
	})
	waitDone(t, &root.Handle, "the root")
	if root.err != nil {
		t.Fatal(root.err)
	}
	waitDone(t, &f.Handle, "the other root")
	waitQuiescent(t, rt)
}

// TestSpawnCountEventHold: a body spawns children, holds an external
// event and returns. Its count is folded before the hold, so the final
// Done — made while every child is still held back — does not complete
// the task: it completes after its last child, once.
func TestSpawnCountEventHold(t *testing.T) {
	rt := countingRuntime(t, Config{Workers: 2})
	const n = 64
	var gate atomic.Bool
	var ran atomic.Int64
	evc := make(chan *EventCounter, 1)
	f := submitAny(rt, func(c *Ctx) (any, error) {
		for range n {
			c.Spawn(func(*Ctx) {
				for !gate.Load() {
					runtime.Gosched()
				}
				ran.Add(1)
			})
		}
		e := c.Events()
		e.Add(1)
		evc <- e
		return nil, nil
	})
	e := <-evc
	time.Sleep(time.Millisecond) // let the body return and park the task
	e.Done()
	time.Sleep(time.Millisecond)
	select {
	case <-f.Done():
		t.Fatalf("the task completed with %d of %d children run", ran.Load(), n)
	default:
	}
	gate.Store(true)
	waitDone(t, &f.Handle, "the event-holding task")
	if f.err != nil {
		t.Fatal(f.err)
	}
	if got := ran.Load(); got != n {
		t.Fatalf("the task completed after %d of %d children", got, n)
	}
	waitQuiescent(t, rt)
}

// TestSpawnCountPanic: a body that panics after spawning fails with a
// *PanicError, and still completes only after its children. The scope
// collects errors, so the failure drains none of them.
func TestSpawnCountPanic(t *testing.T) {
	rt := countingRuntime(t, Config{Workers: 2, OnError: CollectAll})
	const n = 64
	var gate, spawned atomic.Bool
	var ran atomic.Int64
	f := submitAny(rt, func(c *Ctx) (any, error) {
		for range n {
			c.Spawn(func(*Ctx) {
				for !gate.Load() {
					runtime.Gosched()
				}
				ran.Add(1)
			})
		}
		spawned.Store(true)
		panic("after the spawns")
	})
	for !spawned.Load() {
		runtime.Gosched()
	}
	time.Sleep(time.Millisecond)
	select {
	case <-f.Done():
		t.Fatalf("the panicking task completed with %d of %d children run", ran.Load(), n)
	default:
	}
	gate.Store(true)
	waitDone(t, &f.Handle, "the panicking task")
	var pe *PanicError
	if !errors.As(f.err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", f.err)
	}
	if got := ran.Load(); got != n {
		t.Fatalf("the task completed after %d of %d children", got, n)
	}
	waitQuiescent(t, rt)
}

// TestSpawnCountStress: spawn bursts of random size race the
// completions of earlier children on other workers, over many rounds
// and several concurrent roots: some bursts end in a Taskwait, some are
// left to the body's end, and some children spawn grandchildren of
// their own. Every task runs once, and the runtime ends with no live
// task.
func TestSpawnCountStress(t *testing.T) {
	rounds := 200
	if testing.Short() || raceEnabled {
		rounds = 40
	}
	rt := countingRuntime(t, Config{Workers: 3})
	const roots = 3
	var want, ran atomic.Int64
	futs := make([]*anyFuture, roots)
	for r := range roots {
		rng := rand.New(rand.NewSource(int64(r) + 1))
		futs[r] = submitAny(rt, func(c *Ctx) (any, error) {
			for range rounds {
				n := 1 + rng.Intn(spawnWindow+spawnWindow/2)
				nested := rng.Intn(4) == 0
				want.Add(int64(n))
				for i := range n {
					if nested && i%64 == 0 {
						want.Add(2) // the child is one of n; its two children
						c.Spawn(func(c *Ctx) {
							ran.Add(1)
							c.Spawn(func(*Ctx) { ran.Add(1) })
							c.Spawn(func(*Ctx) { ran.Add(1) })
							if i%128 == 0 {
								c.Taskwait()
							}
						})
						continue
					}
					c.Spawn(func(*Ctx) { ran.Add(1) })
				}
				if rng.Intn(2) == 0 {
					c.Taskwait()
				}
			}
			return nil, nil
		})
	}
	for _, f := range futs {
		waitDone(t, &f.Handle, "a stress root")
		if f.err != nil {
			t.Fatal(f.err)
		}
	}
	if ran.Load() != want.Load() {
		t.Fatalf("%d of %d tasks ran", ran.Load(), want.Load())
	}
	waitQuiescent(t, rt)
}

// TestSpawnCountLiveIsSubmissions: LiveTasks counts submissions, not
// tasks. A root body on a hand-played serving slot has a thousand
// children in flight and an offer waiting in the slot's cells, and
// LiveTasks reads 1; once its Taskwait ran them all and the root
// completed, 0.
func TestSpawnCountLiveIsSubmissions(t *testing.T) {
	rt := build(Config{Workers: 1})
	defer rt.Close()
	slot := rt.serveSlots.TryAcquire()
	defer rt.serveSlots.Release(slot)
	const n = 1000
	ran := 0
	o := NewOffer(func(*Ctx) { ran++ }, 0)
	var inFlight, live int64
	h := submit(rt, func(c *Ctx) {
		for range n {
			c.Spawn(func(*Ctx) { ran++ })
		}
		OfferNode(c, &o)
		inFlight, live = c.task.inFlight(c.task.alive.Load()), rt.LiveTasks()
		c.Taskwait()
	})
	rt.runChain(rt.take(slot, false), slot)
	if inFlight != n+1 {
		t.Fatalf("%d children in flight, want the %d spawned and the offer", inFlight, n)
	}
	if live != 1 {
		t.Fatalf("LiveTasks = %d with one submission in flight, want 1", live)
	}
	if ran != n+1 {
		t.Fatalf("%d of %d children ran", ran, n+1)
	}
	settled(t, rt, h)
}
