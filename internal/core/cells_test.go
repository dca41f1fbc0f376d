package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/trace"
)

// The cell tests play an inline-serving slot by hand: the test goroutine
// holds a slot of the serving pool and takes and runs tasks on its index
// with Runtime.take, runReady and runChain, as submitReqInline's helping
// loop does. A root body they run there offers with OfferNode, as a
// compiled graph's fan-out does.

// traceKinds counts rt's trace events of kind k, failing the test on a
// cell steal that robbed another slot than slot or came from another
// index than thief.
func traceKinds(t *testing.T, rt *Runtime, k trace.Kind, thief, slot int) int {
	t.Helper()
	n := 0
	for w, evs := range rt.Tracer().Snapshot().PerCore {
		for _, e := range evs {
			if e.Kind != k {
				continue
			}
			if k == trace.KCellSteal && (w != thief || int(e.Arg) != slot) {
				t.Fatalf("index %d stole from slot %d, want %d from %d", w, e.Arg, thief, slot)
			}
			n++
		}
	}
	return n
}

// cellSteals counts the KCellSteal events in rt's trace (see traceKinds).
func cellSteals(t *testing.T, rt *Runtime, thief, slot int) int {
	t.Helper()
	return traceKinds(t, rt, trace.KCellSteal, thief, slot)
}

// sameOrder fails the test unless got equals want.
func sameOrder(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ran %v, want %v", got, want)
		}
	}
}

// TestCellsOrder: the offers a body makes on a serving slot wait in the
// slot's two cells, where Stats counts them as queued, and a third push
// makes the oldest a task in the scheduler. While an elevated task is
// queued the holder's helping step takes that first; then it takes back
// its newest offer and runs it as a call inside the waiting body,
// leaving one KNodeOffer and no task. A worker whose scheduler poll
// comes up empty steals what is left, as a task, once the slot has left
// it for cellGrace, leaving one KCellSteal.
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
			offers := []Offer{NewOffer(ran("a"), 0), NewOffer(ran("b"), 1), NewOffer(ran("c"), 2)}
			var hi *anyFuture
			var cells []*Offer
			var pending int64
			h := submit(rt, func(c *Ctx) {
				for i := range offers {
					OfferNode(c, &offers[i])
				}
				cp := rt.cellsOf(slot)
				cells = []*Offer{cp.c[0].Load(), cp.c[1].Load()}
				pending = rt.Stats().Pending
				hi = submitAny(rt, func(c *Ctx) (any, error) { ran("elevated")(c); return nil, nil },
					Priority(MaxPriority))
				rt.runReady(slot) // the elevated root, ahead of the offers
				rt.runReady(slot) // c, the newest offer, as a call
			})
			rt.runChain(rt.take(slot, false), slot) // the root, from the scheduler
			if cells[0] != &offers[2] || cells[1] != &offers[1] {
				t.Fatal("the root's offers did not land in the serving slot's cells, newest first")
			}
			if pending != 3 {
				t.Fatalf("Pending = %d with two offers and a task queued, want 3", pending)
			}
			rt.runChain(rt.take(0, false), 0) // a, pushed out to the scheduler as a task
			if n := cellSteals(t, rt, 0, slot); n != 0 {
				t.Fatalf("%d cell steals while the scheduler held a task", n)
			}
			if tk := rt.take(0, false); tk != nil {
				t.Fatal("an offer was stolen at first sight")
			}
			time.Sleep(2 * cellGrace)
			rt.runChain(rt.take(0, false), 0) // b, stolen as a task
			if n := cellSteals(t, rt, 0, slot); n != 1 {
				t.Fatalf("%d cell steals, want 1", n)
			}
			if tk := rt.take(slot, false); tk != nil || rt.takeOffer(slot) != nil {
				t.Fatal("work is left after every offer ran")
			}
			sameOrder(t, order, []string{"elevated", "c", "a", "b"})
			<-hi.Done()
			settled(t, rt, h)
			// The root, the elevated root, a and b: c ran as a call.
			if n := traceKinds(t, rt, trace.KTaskCreate, 0, 0); n != 4 {
				t.Fatalf("%d tasks created, want 4", n)
			}
			if n := traceKinds(t, rt, trace.KNodeOffer, 0, 0); n != 1 {
				t.Fatalf("%d offers run as calls, want 1", n)
			}
		})
	}
}

// TestCellStealGrace: a thief steals from a serving slot's cells only
// after watching the slot's holder leave them untouched for cellGrace.
// Its first look starts the watch, a take by the holder restarts it,
// and a look a grace after the last touch steals the oldest offer. The
// offers' parent has returned from its body, so the holder's take makes
// its offer a task too, not a call.
func TestCellStealGrace(t *testing.T) {
	rt := build(Config{Workers: 1, TraceCapacity: 1 << 10})
	defer rt.Close()
	slot := rt.serveSlots.TryAcquire()
	defer rt.serveSlots.Release(slot)
	var order []string
	ran := func(name string) func(*Ctx) {
		return func(*Ctx) { order = append(order, name) }
	}
	offers := []Offer{NewOffer(ran("a"), 0), NewOffer(ran("b"), 1)}
	h := submit(rt, func(c *Ctx) {
		OfferNode(c, &offers[0])
		OfferNode(c, &offers[1])
	})
	rt.runChain(rt.take(slot, false), slot) // the root; a and b wait in the cells
	if tk := rt.take(0, false); tk != nil {
		t.Fatal("an offer was stolen at the thief's first look")
	}
	time.Sleep(2 * cellGrace)
	rt.runReady(slot) // b, the holder's newest
	if tk := rt.take(0, false); tk != nil {
		t.Fatal("an offer was stolen although the holder took one since the thief's last look")
	}
	time.Sleep(2 * cellGrace)
	rt.runChain(rt.take(0, false), 0) // a, stolen
	if n := cellSteals(t, rt, 0, slot); n != 1 {
		t.Fatalf("%d cell steals, want 1", n)
	}
	sameOrder(t, order, []string{"b", "a"})
	settled(t, rt, h)
	if n := traceKinds(t, rt, trace.KNodeOffer, 0, 0); n != 0 {
		t.Fatalf("%d offers ran as calls after their parent's body returned", n)
	}
	if n := traceKinds(t, rt, trace.KTaskCreate, 0, 0); n != 3 {
		t.Fatalf("%d tasks created, want the root and one per offer", n)
	}
}

// TestCellsHoldLevelZeroOnly: the cells hold offers of level-0 tasks
// only. A task readied on a serving slot is queued in the scheduler, as
// anywhere else, and so is an elevated task's offer, made a task at
// once; a worker takes the elevated tasks before level-0 work queued
// ahead of them.
func TestCellsHoldLevelZeroOnly(t *testing.T) {
	handoffRuntimes(t, func(t *testing.T, rt *Runtime) {
		slot := rt.serveSlots.TryAcquire()
		defer rt.serveSlots.Release(slot)
		var order []string
		ran := func(name string) func(*Ctx) {
			return func(*Ctx) { order = append(order, name) }
		}
		empty := func(when string) {
			cp := rt.cellsOf(slot)
			if cp.c[0].Load() != nil || cp.c[1].Load() != nil {
				t.Fatalf("%s: a serving slot's cell is occupied", when)
			}
		}
		lo := submit(rt, func(c *Ctx) {
			c.Spawn(ran("level-0 task"))
			c.Spawn(ran("elevated task"), Priority(MaxPriority))
		})
		rt.runChain(rt.take(slot, false), slot) // the root, from the scheduler
		empty("spawned tasks")
		o := NewOffer(ran("elevated offer"), 0)
		hi := submitAny(rt, func(c *Ctx) (any, error) {
			OfferNode(c, &o)
			return nil, nil
		}, Priority(MaxPriority))
		rt.runChain(rt.take(slot, false), slot) // the elevated root
		empty("an elevated task's offer")
		for k := 0; k < 3; k++ {
			rt.runChain(rt.take(0, false), 0)
		}
		sameOrder(t, order, []string{"elevated task", "elevated offer", "level-0 task"})
		<-hi.Done()
		settled(t, rt, lo)
	})
}

// TestCellsNoStranding: a serving slot helps run another request's root,
// whose offer lands in the slot's cells, and then returns, as a
// submitter whose own request completed does. The offer is counted as
// queued, so the worker, parked while the root ran, is woken for it and
// steals it, and Drain finishes.
func TestCellsNoStranding(t *testing.T) {
	for _, sk := range []SchedulerKind{SchedSyncDTLock, SchedCentralPTLock, SchedWorkStealing} {
		t.Run(sk.testName(), func(t *testing.T) {
			rt := build(Config{Workers: 1, Scheduler: sk, TraceCapacity: 1 << 10})
			rt.idleSpin = 16
			slot := rt.serveSlots.TryAcquire()
			ran := false
			o := NewOffer(func(*Ctx) { ran = true }, 0)
			h := submit(rt, func(c *Ctx) { OfferNode(c, &o) })
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
				t.Fatalf("Drain: %v with an offer in a returned slot's cells (%+v)", err, rt.Stats())
			}
			rt.Close()
			settled(t, rt, h)
			if !ran {
				t.Fatal("the offer never ran")
			}
			if n := cellSteals(t, rt, 0, slot); n != 1 {
				t.Fatalf("%d cell steals, want the worker's 1", n)
			}
		})
	}
}

// TestCellOfferPanic: a panic that escapes an offer the holder runs as
// a call fails the offer's parent with a *PanicError, as runBody's
// recover fails a task, and the parent's body goes on after its
// Taskwait.
func TestCellOfferPanic(t *testing.T) {
	rt := build(Config{Workers: 1, TraceCapacity: 1 << 10})
	defer rt.Close()
	slot := rt.serveSlots.TryAcquire()
	defer rt.serveSlots.Release(slot)
	o := NewOffer(func(*Ctx) { panic("offer boom") }, 7)
	after := false
	h := submit(rt, func(c *Ctx) {
		OfferNode(c, &o)
		c.Taskwait() // takes o back and runs it as a call
		after = true
	})
	rt.runChain(rt.take(slot, false), slot)
	select {
	case <-h.Done():
	default:
		t.Fatal("the root did not complete")
	}
	var pe *PanicError
	if !errors.As(h.err, &pe) || pe.Value != "offer boom" {
		t.Fatalf("root error %v, want the offer's panic", h.err)
	}
	if !after {
		t.Fatal("the parent's body did not go on after the offer's panic")
	}
	if lv := rt.LiveTasks(); lv != 0 {
		t.Fatalf("LiveTasks = %d at quiescence", lv)
	}
	if n := traceKinds(t, rt, trace.KNodeOffer, 0, 0); n != 1 {
		t.Fatalf("%d offers run as calls, want 1", n)
	}
	if n := traceKinds(t, rt, trace.KTaskCreate, 0, 0); n != 1 {
		t.Fatalf("%d tasks created, want the root alone", n)
	}
}
