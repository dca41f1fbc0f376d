package core

import (
	"runtime"
	"sync"
	"testing"
)

// TestExternalDoneReleasesOnRootShard: the final Done from a plain
// goroutine runs the task's deferred release on a borrowed root-shard
// lease, so its KEventFire carries an index in [Workers,
// Workers+Shards), the range root submitters register on. Each body
// returns with its event pending and the goroutine decrements only once
// the body's guard is dropped, so the goroutine's Done is the final one.
func TestExternalDoneReleasesOnRootShard(t *testing.T) {
	rt := New(Config{Workers: 2, TraceCapacity: 1 << 12})
	const tasks = 8
	for i := 0; i < tasks; i++ {
		evc := make(chan *EventCounter, 1)
		h := submitAny(rt, func(c *Ctx) (any, error) {
			ev := c.Events()
			ev.Add(1)
			evc <- ev
			return nil, nil
		})
		ev := <-evc
		// eventsHeld rises before the guard drop, n falls to 1 with it.
		for rt.PendingEvents() == 0 || ev.n.Load() != 1 {
			runtime.Gosched()
		}
		go ev.Done()
		if _, err := h.Wait(nil); err != nil {
			t.Fatal(err)
		}
	}
	rt.Close()
	ids := eventFires(rt)
	if len(ids) != tasks {
		t.Fatalf("%d event fires recorded, want %d", len(ids), tasks)
	}
	lo, hi := int32(rt.cfg.Workers), int32(rt.cfg.Workers+rt.rootDom.Shards())
	for _, id := range ids {
		if id < lo || id >= hi {
			t.Fatalf("event fires on threads %v, want every one in the root-shard range [%d, %d)", ids, lo, hi)
		}
	}
}

// TestExternalDoneShardStorm: plain-goroutine completers borrow
// root-shard leases while root submitters lease the same shards.
// Submitters chain roots on a few cells; every other root parks on an
// event whose completer writes the cell and then calls Done, the rest
// write the cell in their body. Every write must land exactly once and
// exclusively: a release that ran early, or two threads on one shard
// index, loses an increment (and the race detector reports it).
func TestExternalDoneShardStorm(t *testing.T) {
	const (
		submitters = 6
		perSub     = 200
		ncells     = 6
		completers = 3
	)
	for _, dk := range depsKindsUnderStress() {
		t.Run(dk.testName(), func(t *testing.T) {
			rt := New(Config{Workers: 4, Deps: dk})
			defer rt.Close()
			var cells [ncells]int
			var want [ncells]int
			type job struct {
				ev   *EventCounter
				cell *int
			}
			jobs := make(chan job, submitters*perSub)
			var cwg sync.WaitGroup
			for i := 0; i < completers; i++ {
				cwg.Add(1)
				go func() {
					defer cwg.Done()
					for j := range jobs {
						*j.cell++
						j.ev.Done()
					}
				}()
			}
			var wg sync.WaitGroup
			for g := 0; g < submitters; g++ {
				for i := 0; i < perSub; i++ {
					want[(g+i)%ncells]++
				}
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					hs := make([]*anyFuture, 0, perSub)
					for i := 0; i < perSub; i++ {
						cell := &cells[(g+i)%ncells]
						body := func(*Ctx) (any, error) { *cell++; return nil, nil }
						if i%2 == 0 {
							body = func(c *Ctx) (any, error) {
								ev := c.Events()
								ev.Add(1)
								jobs <- job{ev, cell}
								return nil, nil
							}
						}
						hs = append(hs, submitAny(rt, body, InOut(cell)))
					}
					for _, h := range hs {
						if _, err := h.Wait(nil); err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(jobs)
			cwg.Wait()
			if cells != want {
				t.Fatalf("cells = %v, want %v", cells, want)
			}
			if l, p := rt.LiveTasks(), rt.PendingEvents(); l != 0 || p != 0 {
				t.Fatalf("LiveTasks = %d, PendingEvents = %d", l, p)
			}
		})
	}
}
