package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEventDeferredReleaseOrdersSuccessor pins the core contract: a
// successor of an event-holding task must not run — and must observe
// the data the external completion wrote — until the final decrement.
// The race detector validates the happens-before edge.
func TestEventDeferredReleaseOrdersSuccessor(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	var x int
	a := rt.Submit(func(c *Ctx) (any, error) {
		ev := c.Events()
		ev.Add(1)
		go func() {
			time.Sleep(time.Millisecond)
			x = 42 // "response arrived": visible to successors via Done
			ev.Done()
		}()
		return nil, nil
	}, Out(&x))
	var got int
	b := rt.Submit(func(*Ctx) (any, error) {
		got = x
		return nil, nil
	}, In(&x))
	for _, h := range []*Handle{a, b} {
		if _, err := h.Wait(nil); err != nil {
			t.Fatal(err)
		}
	}
	if got != 42 {
		t.Fatalf("successor read %d, want 42 (released before the event fired?)", got)
	}
	if n := rt.LiveTasks(); n != 0 {
		t.Fatalf("LiveTasks = %d", n)
	}
	if n := rt.PendingEvents(); n != 0 {
		t.Fatalf("PendingEvents = %d", n)
	}
}

// TestEventDecrementBeforeReturnRace hammers the guard protocol: the
// external decrement may land before or after the body returns, and
// either interleaving must complete the task exactly once. Some
// iterations register two events to exercise multi-decrement drains.
func TestEventDecrementBeforeReturnRace(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer rt.Close()
	const n = 400
	var completed atomic.Int64
	handles := make([]*Handle, n)
	for i := 0; i < n; i++ {
		i := i
		handles[i] = rt.Submit(func(c *Ctx) (any, error) {
			ev := c.Events()
			k := 1 + i%2
			ev.Add(k)
			for j := 0; j < k; j++ {
				go ev.Done() // races with the body's return
			}
			if i%3 == 0 {
				runtime.Gosched() // sometimes let the decrement win
			}
			return i, nil
		})
	}
	for i, h := range handles {
		v, err := h.Wait(nil)
		if err != nil {
			t.Fatal(err)
		}
		if v.(int) != i {
			t.Fatalf("handle %d resolved with %v", i, v)
		}
		completed.Add(1)
	}
	if completed.Load() != n {
		t.Fatalf("completed %d/%d", completed.Load(), n)
	}
	if l, p := rt.LiveTasks(), rt.PendingEvents(); l != 0 || p != 0 {
		t.Fatalf("LiveTasks = %d, PendingEvents = %d after quiescence", l, p)
	}
}

// TestEventDoneFromWorkerBypass exercises the worker-context decrement:
// the final DoneFrom inside another task's body runs the release on the
// calling worker, including the immediate-successor bypass. The
// successor must observe the predecessor's deferred write.
func TestEventDoneFromWorkerBypass(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	var x int
	ecCh := make(chan *EventCounter, 1)
	a := rt.Submit(func(c *Ctx) (any, error) {
		ev := c.Events()
		ev.Add(1)
		ecCh <- ev
		return nil, nil
	}, Out(&x))
	var got atomic.Int64
	b := rt.Submit(func(*Ctx) (any, error) {
		got.Store(int64(x))
		return nil, nil
	}, In(&x))
	// completer is an independent task that finishes a's event from its
	// own body.
	completer := rt.Submit(func(c *Ctx) (any, error) {
		ev := <-ecCh
		x = 7
		ev.DoneFrom(c)
		return nil, nil
	})
	for _, h := range []*Handle{a, b, completer} {
		if _, err := h.Wait(nil); err != nil {
			t.Fatal(err)
		}
	}
	if got.Load() != 7 {
		t.Fatalf("successor read %d, want 7", got.Load())
	}
	if l, p := rt.LiveTasks(), rt.PendingEvents(); l != 0 || p != 0 {
		t.Fatalf("LiveTasks = %d, PendingEvents = %d", l, p)
	}
}

// TestEventCancellationWhilePending: a FailFast abort while a sibling
// holds pending events must drain the scope without leaks — the
// event-holding task still completes (at its final decrement), its
// successor is skipped with ErrTaskSkipped wrapping the cause, handles
// resolve, and the live/pending counters reach zero.
func TestEventCancellationWhilePending(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer rt.Close()
	sentinel := errors.New("backend exploded")
	var x int
	var hSucc, hFail *Handle
	var succRan atomic.Bool
	err := rt.Run(func(c *Ctx) {
		ev := make(chan *EventCounter, 1)
		c.GoFn(func(cc *Ctx) (any, error) {
			e := cc.Events()
			e.Add(1)
			ev <- e
			return nil, nil
		}, Out(&x))
		hSucc = c.GoFn(func(*Ctx) (any, error) {
			succRan.Store(true)
			return nil, nil
		}, In(&x))
		hFail = c.GoFn(func(*Ctx) (any, error) {
			return nil, sentinel
		})
		go func() {
			// Fire the event only after the failure has fully aborted the
			// scope, so the successor's skip is deterministic.
			<-hFail.Done()
			(<-ev).Done()
		}()
		c.Taskwait()
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run error = %v, want %v", err, sentinel)
	}
	if succRan.Load() {
		t.Fatal("successor of the event-holding task ran despite the scope abort")
	}
	_, serr := hSucc.Wait(nil)
	if !errors.Is(serr, ErrTaskSkipped) || !errors.Is(serr, sentinel) {
		t.Fatalf("skipped successor error = %v, want ErrTaskSkipped wrapping %v", serr, sentinel)
	}
	if l, p := rt.LiveTasks(), rt.PendingEvents(); l != 0 || p != 0 {
		t.Fatalf("LiveTasks = %d, PendingEvents = %d after cancellation drain", l, p)
	}
}

// TestEventPanicWhileHoldingEvents: a body that panics after
// registering events still completes only at the final decrement, with
// the panic delivered as a *PanicError.
func TestEventPanicWhileHoldingEvents(t *testing.T) {
	rt := New(Config{Workers: 2, OnError: CollectAll})
	defer rt.Close()
	var fired atomic.Bool
	h := rt.Submit(func(c *Ctx) (any, error) {
		ev := c.Events()
		ev.Add(1)
		go func() {
			time.Sleep(2 * time.Millisecond)
			fired.Store(true)
			ev.Done()
		}()
		panic("boom while holding events")
	})
	_, err := h.Wait(nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("handle error = %v, want *PanicError", err)
	}
	if !fired.Load() {
		t.Fatal("handle resolved before the pending event fired")
	}
	if l, p := rt.LiveTasks(), rt.PendingEvents(); l != 0 || p != 0 {
		t.Fatalf("LiveTasks = %d, PendingEvents = %d", l, p)
	}
}

// TestEventsOnLoopTasksRejected: Events has no defined release point
// for work-sharing loops; calling it from a chunk must panic, and the
// panic surfaces as the loop's *PanicError.
func TestEventsOnLoopTasksRejected(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	err := rt.RunLoop(0, 8, 1, func(c *Ctx, lo, hi int) {
		c.Events()
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("loop error = %v, want *PanicError from the Events rejection", err)
	}
	if l := rt.LiveTasks(); l != 0 {
		t.Fatalf("LiveTasks = %d", l)
	}
}

// TestEventCounterMisusePanics: a drained counter is spent — further
// Add or Done must panic instead of corrupting a recycled task.
func TestEventCounterMisusePanics(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer rt.Close()
	var ec *EventCounter
	h := rt.Submit(func(c *Ctx) (any, error) {
		ec = c.Events()
		return nil, nil
	})
	if _, err := h.Wait(nil); err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a drained counter did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Add", func() { ec.Add(1) })
	mustPanic("Done", func() { ec.Done() })
	mustPanic("Add(0)", func() { ec.Add(0) })
}

// TestAfterDefersCompletion: Ctx.After must hold the task's completion
// for at least the requested duration — without holding the worker
// (a second task runs meanwhile on the single worker).
func TestAfterDefersCompletion(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer rt.Close()
	const d = 20 * time.Millisecond
	start := time.Now()
	var overlapped atomic.Bool
	h := rt.Submit(func(c *Ctx) (any, error) {
		c.After(d)
		return nil, nil
	})
	// This task only runs if the worker was freed while the timer
	// pends.
	h2 := rt.Submit(func(*Ctx) (any, error) {
		overlapped.Store(true)
		return nil, nil
	})
	if _, err := h2.Wait(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(nil); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < d {
		t.Fatalf("timer task completed after %v, before the requested %v", el, d)
	}
	if !overlapped.Load() {
		t.Fatal("worker was not released while the timer pended")
	}
}

// TestAfterFuncDeliversResponse: the simulated-I/O shape — AfterFunc
// writes the response on the firing thread, the dependency order
// makes it visible to the successor (validated under -race).
func TestAfterFuncDeliversResponse(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	var resp int
	a := rt.Submit(func(c *Ctx) (any, error) {
		c.AfterFunc(2*time.Millisecond, func() { resp = 99 })
		return nil, nil
	}, Out(&resp))
	var got int
	b := rt.Submit(func(*Ctx) (any, error) {
		got = resp
		return nil, nil
	}, In(&resp))
	for _, h := range []*Handle{a, b} {
		if _, err := h.Wait(nil); err != nil {
			t.Fatal(err)
		}
	}
	if got != 99 {
		t.Fatalf("successor read %d, want 99", got)
	}
}

// TestAwaitHelpsOnSingleWorker: Await must execute other ready work
// while blocked — on one worker, awaiting a handle whose task has not
// run yet deadlocks unless the waiter helps.
func TestAwaitHelpsOnSingleWorker(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer rt.Close()
	err := rt.Run(func(c *Ctx) {
		inner := rt.Submit(func(*Ctx) (any, error) { return 21, nil })
		v, err := c.Await(inner)
		if err != nil {
			panic(err)
		}
		if v.(int) != 21 {
			panic(fmt.Sprintf("awaited %v", v))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEventsAcrossConfigs smoke-tests the completer-slot wiring on
// every scheduler/deps/alloc combination the thread-index space must
// cover: external decrements run dependency release and completion on
// borrowed slots, which all per-thread structures must be sized for.
func TestEventsAcrossConfigs(t *testing.T) {
	cfgs := []Config{
		{Workers: 2, Scheduler: SchedSyncDTLock, Deps: DepsWaitFree},
		{Workers: 2, Scheduler: SchedSyncDTLock, Deps: DepsLocked},
		{Workers: 2, Scheduler: SchedCentralPTLock, Deps: DepsWaitFree},
		{Workers: 2, Scheduler: SchedBlocking, Deps: DepsLocked, Alloc: AllocSerial},
		{Workers: 2, Scheduler: SchedWorkStealing, Deps: DepsLocked},
		{Workers: 2, Scheduler: SchedWorkStealing, Deps: DepsWaitFree},
	}
	for i, cfg := range cfgs {
		cfg := cfg
		t.Run(fmt.Sprintf("cfg%d", i), func(t *testing.T) {
			rt := New(cfg)
			defer rt.Close()
			const n = 100
			var sum atomic.Int64
			cells := make([]int, n)
			handles := make([]*Handle, 0, 2*n)
			for j := 0; j < n; j++ {
				j := j
				handles = append(handles, rt.Submit(func(c *Ctx) (any, error) {
					ev := c.Events()
					ev.Add(1)
					go func() {
						cells[j] = j
						ev.Done()
					}()
					return nil, nil
				}, Out(&cells[j])))
				handles = append(handles, rt.Submit(func(*Ctx) (any, error) {
					sum.Add(int64(cells[j]))
					return nil, nil
				}, In(&cells[j])))
			}
			for _, h := range handles {
				if _, err := h.Wait(nil); err != nil {
					t.Fatal(err)
				}
			}
			if want := int64(n) * (n - 1) / 2; sum.Load() != want {
				t.Fatalf("successor sum %d, want %d", sum.Load(), want)
			}
			if l, p := rt.LiveTasks(), rt.PendingEvents(); l != 0 || p != 0 {
				t.Fatalf("LiveTasks = %d, PendingEvents = %d", l, p)
			}
		})
	}
}

// TestEventWithCommutativeAccess: the commutative token is held across
// the park — a second commutative task on the same address must not
// enter its critical section until the first task's event fires.
func TestEventWithCommutativeAccess(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer rt.Close()
	var x int
	var inside atomic.Int32
	body := func(c *Ctx) (any, error) {
		if inside.Add(1) != 1 {
			t.Error("two commutative critical sections overlapped")
		}
		ev := c.Events()
		ev.Add(1)
		go func() {
			time.Sleep(time.Millisecond)
			inside.Add(-1) // section ends only at the event
			ev.Done()
		}()
		return nil, nil
	}
	h1 := rt.Submit(body, Commutative(&x))
	h2 := rt.Submit(body, Commutative(&x))
	for _, h := range []*Handle{h1, h2} {
		if _, err := h.Wait(nil); err != nil {
			t.Fatal(err)
		}
	}
	if l, p := rt.LiveTasks(), rt.PendingEvents(); l != 0 || p != 0 {
		t.Fatalf("LiveTasks = %d, PendingEvents = %d", l, p)
	}
}

// TestDrainGraceful: Drain waits for live tasks and pending events.
// (What a sealed runtime does with each root kind is TestRootAdmission.)
func TestDrainGraceful(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	var done atomic.Int64
	for i := 0; i < 20; i++ {
		rt.Submit(func(c *Ctx) (any, error) {
			c.After(2 * time.Millisecond)
			done.Add(1)
			return nil, nil
		})
	}
	if err := rt.Drain(context.Background()); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	if done.Load() != 20 {
		t.Fatalf("%d/20 tasks completed before Drain returned", done.Load())
	}
	if l, p := rt.LiveTasks(), rt.PendingEvents(); l != 0 || p != 0 {
		t.Fatalf("LiveTasks = %d, PendingEvents = %d after Drain", l, p)
	}
	// Drain again: already quiescent, still nil.
	if err := rt.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain = %v", err)
	}
}

// TestDrainContextCancel: a Drain that cannot reach quiescence before
// its context fires returns the cause; the seal still holds, and a
// later unbounded Drain completes.
func TestDrainContextCancel(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	release := make(chan struct{})
	h := rt.Submit(func(c *Ctx) (any, error) {
		ev := c.Events()
		ev.Add(1)
		go func() {
			<-release
			ev.Done()
		}()
		return nil, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := rt.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want deadline cause", err)
	}
	close(release)
	if _, err := h.Wait(nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Drain(context.Background()); err != nil {
		t.Fatalf("follow-up Drain = %v", err)
	}
}

// TestTenThousandInflightGraphsOnEightWorkers: 10,000 echo-style request
// graphs are driven to the parked state *simultaneously* on an 8-worker
// runtime — every backend body has returned with its event pending, so
// PendingEvents reports all 10,000 — before a handful of completer
// goroutines fire the "responses". The run must then drain completely
// and verify bit-exact: in-flight capacity is bounded by memory, not by
// workers (a body that blocked instead would cap it at 8).
func TestTenThousandInflightGraphsOnEightWorkers(t *testing.T) {
	const (
		requests = 10_000
		nkeys    = 64
	)
	rt := New(Config{Workers: 8})
	defer rt.Close()

	keys := make([]float64, nkeys)
	for i := range keys {
		keys[i] = float64(1 + i%9)
	}
	stage := make([]float64, requests)
	resp := make([]float64, requests)
	evs := make([]*EventCounter, requests)
	reqKey := func(r int) int { return int(uint64(r) * 2654435761 % uint64(nkeys)) }
	reqDelta := func(r int) float64 { return float64(1 + (r*7+3)%11) }

	replies := make([]*Handle, requests)
	for r := 0; r < requests; r++ {
		st, rp := &stage[r], &resp[r]
		key := &keys[reqKey(r)]
		rt.Submit(func(*Ctx) (any, error) {
			*st = reqDelta(r)
			return nil, nil
		}, Out(st))
		rt.Submit(func(c *Ctx) (any, error) {
			ec := c.Events()
			ec.Add(1)
			evs[r] = ec // published to the firing goroutines via PendingEvents below
			return nil, nil
		}, In(st), Out(rp))
		replies[r] = rt.Submit(func(*Ctx) (any, error) {
			*key += *rp
			return nil, nil
		}, In(rp), InOut(key))
	}

	// Every backend body must return with its event pending: all 10k
	// graphs parked at once, no worker held.
	deadline := time.Now().Add(30 * time.Second)
	for rt.PendingEvents() != requests {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d graphs parked on events", rt.PendingEvents(), requests)
		}
		time.Sleep(time.Millisecond)
	}

	// Fire the 10k responses from 8 external goroutines.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := g; r < requests; r += 8 {
				resp[r] = stage[r] * 2
				evs[r].Done()
			}
		}(g)
	}
	wg.Wait()
	for r, h := range replies {
		if _, err := h.Wait(nil); err != nil {
			t.Fatalf("reply %d: %v", r, err)
		}
	}

	for k := 0; k < nkeys; k++ {
		want := float64(1 + k%9)
		for r := 0; r < requests; r++ {
			if reqKey(r) == k {
				want += reqDelta(r) * 2
			}
		}
		if keys[k] != want {
			t.Fatalf("key %d = %v, want %v", k, keys[k], want)
		}
	}
	if live := rt.LiveTasks(); live != 0 {
		t.Fatalf("LiveTasks = %d after drain, want 0", live)
	}
	if pend := rt.PendingEvents(); pend != 0 {
		t.Fatalf("PendingEvents = %d after drain, want 0", pend)
	}
}
