package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestSpawnWindowBoundsShells: one body spawns n children with no
// Taskwait until the end, on every scheduler, both dependency systems
// and one or two workers. Every child's output is checked, and since
// the creator helps once spawnWindow children are in flight, the shells
// ever made are bounded by the window plus what the allocator's
// per-slot free lists may hold (two refill batches of 64 each), not by
// n. Without the window one worker makes n+1 shells, which is still
// twice the bound at the 10 000 children of a short or race run.
//
// The bound holds wherever the creator can reach every ready child: on
// one worker, and for access-free children, which all wait in the
// scheduler. A stencil on two workers readies most successors into the
// other worker's bypass slot; when that worker is descheduled the help
// loop finds nothing, returns without waiting, and the lead grows
// (6.5–8.5 k shells with a benchmark busy on the other core, ~2.2 k on
// an idle host). That row checks its outputs and logs its count.
func TestSpawnWindowBoundsShells(t *testing.T) {
	n := 100_000
	if testing.Short() || raceEnabled {
		n = 10_000
	}
	const side = 16 // stencil grid: side × side cells on a torus
	for _, sk := range []SchedulerKind{SchedSyncDTLock, SchedCentralPTLock, SchedBlocking, SchedWorkStealing} {
		for _, dk := range []DepsKind{DepsWaitFree, DepsLocked} {
			for _, workers := range []int{1, 2} {
				for _, stencil := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/w%d/stencil=%v", sk.testName(), dk.testName(), workers, stencil)
					t.Run(name, func(t *testing.T) {
						rt := build(Config{Workers: workers, Scheduler: sk, Deps: dk})
						shells := &shellCount{Allocator: rt.alloc, seen: map[*Task]struct{}{}}
						rt.alloc = shells
						rt.start()
						defer rt.Close()

						out := make([]int, n)
						var grid, want [side][side]uint64
						err := rt.Run(func(c *Ctx) {
							for i := range n {
								if !stencil {
									c.Spawn(func(*Ctx) { out[i] = 3*i + 1 })
									continue
								}
								bi, bj := i/side%side, i%side
								up, left := &grid[(bi+side-1)%side][bj], &grid[bi][(bj+side-1)%side]
								down, right := &grid[(bi+1)%side][bj], &grid[bi][(bj+1)%side]
								c.Spawn(func(*Ctx) {
									grid[bi][bj] = grid[bi][bj]*31 + *up + 3**left + 5**down + 7**right + uint64(i)
								}, InOut(&grid[bi][bj]), In(up), In(left), In(down), In(right))
							}
							c.Taskwait()
						})
						if err != nil {
							t.Fatal(err)
						}
						if stencil {
							for i := range n {
								bi, bj := i/side%side, i%side
								want[bi][bj] = want[bi][bj]*31 + want[(bi+side-1)%side][bj] +
									3*want[bi][(bj+side-1)%side] + 5*want[(bi+1)%side][bj] +
									7*want[bi][(bj+1)%side] + uint64(i)
							}
							if grid != want {
								t.Fatal("stencil grid differs from the serial sweep")
							}
						} else {
							for i, v := range out {
								if v != 3*i+1 {
									t.Fatalf("out[%d] = %d, want %d", i, v, 3*i+1)
								}
							}
						}
						shells.mu.Lock()
						made := len(shells.seen)
						shells.mu.Unlock()
						if bound := spawnWindow + rt.Slots()*128; made > bound && (workers == 1 || !stencil) {
							t.Fatalf("%d shells for %d children, want at most %d", made, n, bound)
						}
						t.Logf("%d shells for %d children", made, n)
					})
				}
			}
		}
	}
}

// TestSpawnWindowEdge: on one worker a body's children can only run
// inside its own Spawn calls or after it returns. With exactly
// spawnWindow children none runs inside Spawn and no help episode is
// traced; one child more starts exactly one episode, which runs
// children until half the window is in flight and records how many in
// its KSpawnHelp event.
func TestSpawnWindowEdge(t *testing.T) {
	for _, n := range []int{spawnWindow, spawnWindow + 1} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rt := New(Config{Workers: 1, TraceCapacity: 1 << 16})
			var loopDone atomic.Bool
			var early, ran atomic.Int64
			err := rt.Run(func(c *Ctx) {
				for range n {
					c.Spawn(func(*Ctx) {
						ran.Add(1)
						if !loopDone.Load() {
							early.Add(1)
						}
					})
				}
				loopDone.Store(true)
			})
			rt.Close()
			if err != nil {
				t.Fatal(err)
			}
			if ran.Load() != int64(n) {
				t.Fatalf("%d of %d children ran", ran.Load(), n)
			}
			tr := rt.Tracer()
			if d := tr.Drops(); d != 0 {
				t.Fatalf("trace dropped %d events: raise the capacity", d)
			}
			var episodes []uint64
			for _, evs := range tr.Snapshot().PerCore {
				for _, e := range evs {
					if e.Kind == trace.KSpawnHelp {
						episodes = append(episodes, e.Arg)
					}
				}
			}
			if n == spawnWindow {
				if early.Load() != 0 || len(episodes) != 0 {
					t.Fatalf("%d children ran inside Spawn, %d help episodes; want none at the window", early.Load(), len(episodes))
				}
				return
			}
			if len(episodes) != 1 {
				t.Fatalf("%d help episodes, want 1", len(episodes))
			}
			if want := int64(spawnWindow/2 + 1); early.Load() != want || episodes[0] != uint64(want) {
				t.Fatalf("%d children ran inside Spawn, episode Arg %d; want %d each", early.Load(), episodes[0], want)
			}
		})
	}
}

// TestSpawnWindowNeverWaits: child 0 writes g and parks on an event the
// body completes only after its spawn loop, so the 3 × spawnWindow
// readers of g behind it cannot run until the loop ends. The help loop
// must find nothing ready and return instead of waiting for the window
// to drain; a wait there never ends.
func TestSpawnWindowNeverWaits(t *testing.T) {
	rt := New(Config{Workers: 2})
	const readers = 3 * spawnWindow
	var g int
	var ev atomic.Pointer[EventCounter]
	var ok atomic.Int64
	done := make(chan error, 1)
	go func() {
		done <- rt.Run(func(c *Ctx) {
			c.Spawn(func(c *Ctx) {
				e := c.Events()
				e.Add(1)
				g = 42
				ev.Store(e)
			}, Out(&g))
			for range readers {
				c.Spawn(func(*Ctx) {
					if g == 42 {
						ok.Add(1)
					}
				}, In(&g))
			}
			for ev.Load() == nil {
				runtime.Gosched()
			}
			ev.Load().Done()
		})
	}()
	select {
	case err := <-done:
		rt.Close()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		// Close would wait for the stuck body too: leave the runtime.
		buf := make([]byte, 1<<20)
		t.Fatalf("spawn loop never finished: the window waited\n%s", buf[:runtime.Stack(buf, true)])
	}
	if ok.Load() != readers {
		t.Fatalf("%d of %d readers saw child 0's write", ok.Load(), readers)
	}
}

// TestSpawnWindowCommutativeHolder: child 0 takes the commutative token
// of x and parks on an event that completes only after the spawn loop,
// so every later child loses the token race and goes back to the
// queue. On one worker a help episode then finds ready work forever
// without the window shrinking; it must stop after one window of tasks
// and let the body go on.
func TestSpawnWindowCommutativeHolder(t *testing.T) {
	rt := New(Config{Workers: 1})
	const n = spawnWindow + 3
	var x int
	var held atomic.Bool
	loopDone := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- rt.Run(func(c *Ctx) {
			c.Spawn(func(c *Ctx) {
				e := c.Events()
				e.Add(1)
				held.Store(true)
				go func() { <-loopDone; e.Done() }()
			}, Commutative(&x))
			for range n {
				c.Spawn(func(*Ctx) { x++ }, Commutative(&x))
			}
			if !held.Load() {
				t.Error("child 0 did not run inside the spawn loop: the case is not exercised")
			}
			close(loopDone)
		})
	}()
	select {
	case err := <-done:
		rt.Close()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		buf := make([]byte, 1<<20)
		t.Fatalf("spawn loop never finished: a help episode did not stop\n%s", buf[:runtime.Stack(buf, true)])
	}
	if x != n {
		t.Fatalf("x = %d, want %d", x, n)
	}
}

// TestSpawnWindowOffers: the window covers offers as it covers spawns.
// A level-0 root body on a hand-played serving slot offers three
// windows of records. The two cells push the older ones out to the
// scheduler as tasks, and no worker runs them (the runtime is never
// started), so only the body's own help bounds them: its children in
// flight never pass the window by more than the offer that tripped it,
// and all but a window of offers ran before the last was made.
func TestSpawnWindowOffers(t *testing.T) {
	rt := build(Config{Workers: 1})
	defer rt.Close()
	slot := rt.serveSlots.TryAcquire()
	defer rt.serveSlots.Release(slot)
	const n = 3 * spawnWindow
	ran := make([]int, n)
	offers := make([]Offer, n)
	for i := range offers {
		offers[i] = NewOffer(func(*Ctx) { ran[i]++ }, i)
	}
	var peak int64
	before := 0
	h := submit(rt, func(c *Ctx) {
		for i := range offers {
			OfferNode(c, &offers[i])
			peak = max(peak, c.task.inFlight(c.task.alive.Load()))
		}
		for _, r := range ran {
			before += r
		}
		c.Taskwait()
	})
	rt.runChain(rt.take(slot, false), slot)
	settled(t, rt, h)
	if peak > spawnWindow+1 {
		t.Fatalf("%d offers in flight, want at most the window (%d) and one", peak, spawnWindow)
	}
	if before < n-spawnWindow-1 {
		t.Fatalf("%d of %d offers ran before the last was made: the body did not help past the window", before, n)
	}
	for i, r := range ran {
		if r != 1 {
			t.Fatalf("offer %d ran %d times", i, r)
		}
	}
}
