package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/trace"
)

// The cell tests play an inline-serving slot by hand: the test goroutine
// holds a slot of the serving pool and takes and runs tasks on its index
// with Runtime.take and runChain, as submitReqInline's helping loop does.

// cellSteals counts the KCellSteal events in rt's trace that robbed
// slot, failing the test on one that names another slot or comes from
// an index other than thief.
func cellSteals(t *testing.T, rt *Runtime, thief, slot int) int {
	t.Helper()
	n := 0
	for w, evs := range rt.Tracer().Snapshot().PerCore {
		for _, e := range evs {
			if e.Kind != trace.KCellSteal {
				continue
			}
			if w != thief || int(e.Arg) != slot {
				t.Fatalf("index %d stole from slot %d, want %d from %d", w, e.Arg, thief, slot)
			}
			n++
		}
	}
	return n
}

// TestCellsOrder: the tasks a body readies on a serving slot wait in the
// slot's two cells, where Stats counts them as queued, and a third
// pushes the oldest out to the scheduler. A queued task of a higher
// level is taken before any cell task; then the slot's own take runs
// the newest cell, and a worker whose scheduler poll comes up empty
// steals what is left once the slot has left it for cellGrace, leaving
// one KCellSteal.
func TestCellsOrder(t *testing.T) {
	for _, sk := range []SchedulerKind{SchedSyncDTLock, SchedCentralPTLock} {
		t.Run(sk.testName(), func(t *testing.T) {
			rt := build(Config{Workers: 1, Scheduler: sk, TraceCapacity: 1 << 10})
			defer rt.Close()
			slot := rt.serveSlots.TryAcquire()
			defer rt.serveSlots.Release(slot)
			var order []string
			ran := func(name string) func(*Ctx) {
				return func(*Ctx) { order = append(order, name) }
			}
			h := submit(rt, func(c *Ctx) {
				c.Spawn(ran("a"))
				c.Spawn(ran("b"))
				c.Spawn(ran("c"))
			})
			rt.runChain(rt.take(slot, false), slot) // the root, from the scheduler
			cp := rt.cellsOf(slot)
			if cp.c[0].Load() == nil || cp.c[1].Load() == nil {
				t.Fatal("the root's children did not land in the serving slot's cells")
			}
			if got := rt.Stats().Pending; got != 3 {
				t.Fatalf("Pending = %d with three children queued, want 3", got)
			}
			hi := submitAny(rt, func(c *Ctx) (any, error) { ran("elevated")(c); return nil, nil },
				Priority(MaxPriority))
			rt.runChain(rt.take(slot, false), slot) // the elevated root
			rt.runChain(rt.take(slot, false), slot) // c, the newest cell
			rt.runChain(rt.take(0, false), 0)       // a, pushed out to the scheduler
			if n := cellSteals(t, rt, 0, slot); n != 0 {
				t.Fatalf("%d cell steals while the scheduler held a task", n)
			}
			if tk := rt.take(0, false); tk != nil {
				t.Fatal("a cell task was stolen at first sight")
			}
			time.Sleep(2 * cellGrace)
			rt.runChain(rt.take(0, false), 0) // b, stolen
			if n := cellSteals(t, rt, 0, slot); n != 1 {
				t.Fatalf("%d cell steals, want 1", n)
			}
			if tk := rt.take(slot, false); tk != nil {
				t.Fatal("a task is left after every child ran")
			}
			want := []string{"elevated", "c", "a", "b"}
			if len(order) != len(want) {
				t.Fatalf("ran %v, want %v", order, want)
			}
			for i := range want {
				if order[i] != want[i] {
					t.Fatalf("ran %v, want %v", order, want)
				}
			}
			<-hi.Done()
			settled(t, rt, h)
		})
	}
}

// TestCellStealGrace: a thief steals from a serving slot's cells only
// after watching the slot's holder leave them untouched for cellGrace.
// Its first look starts the watch, a take by the holder restarts it,
// and a look a grace after the last touch steals the oldest task.
func TestCellStealGrace(t *testing.T) {
	rt := build(Config{Workers: 1, TraceCapacity: 1 << 10})
	defer rt.Close()
	slot := rt.serveSlots.TryAcquire()
	defer rt.serveSlots.Release(slot)
	var order []string
	ran := func(name string) func(*Ctx) {
		return func(*Ctx) { order = append(order, name) }
	}
	h := submit(rt, func(c *Ctx) {
		c.Spawn(ran("a"))
		c.Spawn(ran("b"))
	})
	rt.runChain(rt.take(slot, false), slot) // the root; a and b wait in the cells
	if tk := rt.take(0, false); tk != nil {
		t.Fatal("a cell task was stolen at the thief's first look")
	}
	time.Sleep(2 * cellGrace)
	rt.runChain(rt.take(slot, false), slot) // b, the holder's newest
	if tk := rt.take(0, false); tk != nil {
		t.Fatal("a cell task was stolen although the holder took one since the thief's last look")
	}
	time.Sleep(2 * cellGrace)
	rt.runChain(rt.take(0, false), 0) // a, stolen
	if n := cellSteals(t, rt, 0, slot); n != 1 {
		t.Fatalf("%d cell steals, want 1", n)
	}
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("ran %v, want [b a]", order)
	}
	settled(t, rt, h)
}

// TestCellsHoldLevelZeroOnly: a cell task waits for its submitter's
// next take or for a scheduler poll that comes up empty, so an elevated
// task readied on a serving slot is queued in the scheduler instead,
// where a worker takes it before level-0 work queued after it.
func TestCellsHoldLevelZeroOnly(t *testing.T) {
	handoffRuntimes(t, func(t *testing.T, rt *Runtime) {
		slot := rt.serveSlots.TryAcquire()
		defer rt.serveSlots.Release(slot)
		var order []string
		ran := func(name string) func(*Ctx) {
			return func(*Ctx) { order = append(order, name) }
		}
		h := submit(rt, func(c *Ctx) { c.Spawn(ran("elevated"), Priority(MaxPriority)) })
		rt.runChain(rt.take(slot, false), slot) // the root, from the scheduler
		if rt.cellsOf(slot).c[0].Load() != nil {
			t.Fatal("an elevated task waits in a serving slot's cell")
		}
		lo := submit(rt, ran("level-0"))
		for k := 0; k < 2; k++ {
			rt.runChain(rt.take(0, false), 0)
		}
		if len(order) != 2 || order[0] != "elevated" || order[1] != "level-0" {
			t.Fatalf("ran %v, want [elevated level-0]", order)
		}
		<-lo.Done()
		settled(t, rt, h)
	})
}

// TestCellsNoStranding: a serving slot helps run another request's root,
// whose child lands in the slot's cells, and then returns, as a
// submitter whose own request completed does. The child is counted as
// queued, so the worker, parked while the root ran, is woken for it and
// steals it, and Drain finishes.
func TestCellsNoStranding(t *testing.T) {
	for _, sk := range []SchedulerKind{SchedSyncDTLock, SchedCentralPTLock, SchedWorkStealing} {
		t.Run(sk.testName(), func(t *testing.T) {
			rt := build(Config{Workers: 1, Scheduler: sk, TraceCapacity: 1 << 10})
			rt.idleSpin = 16
			slot := rt.serveSlots.TryAcquire()
			h := submit(rt, func(c *Ctx) { c.Spawn(func(*Ctx) {}) })
			other := rt.take(slot, false)
			if other == nil {
				t.Fatal("the other request's root is not queued")
			}
			rt.start()
			waitStats(t, rt, "the worker never parked", func(s Stats) bool { return s.Parked == 1 })
			rt.runChain(other, slot)
			rt.serveSlots.Release(slot)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := rt.Drain(ctx); err != nil {
				t.Fatalf("Drain: %v with the child in a returned slot's cells (%+v)", err, rt.Stats())
			}
			rt.Close()
			settled(t, rt, h)
			if n := cellSteals(t, rt, 0, slot); n != 1 {
				t.Fatalf("%d cell steals, want the worker's 1", n)
			}
		})
	}
}
