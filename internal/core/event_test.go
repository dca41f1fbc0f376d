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
	a := submitAny(rt, func(c *Ctx) (any, error) {
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
	b := submitAny(rt, func(*Ctx) (any, error) {
		got = x
		return nil, nil
	}, In(&x))
	for _, h := range []*anyFuture{a, b} {
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
	handles := make([]*anyFuture, n)
	for i := 0; i < n; i++ {
		i := i
		handles[i] = submitAny(rt, func(c *Ctx) (any, error) {
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
	a := submitAny(rt, func(c *Ctx) (any, error) {
		ev := c.Events()
		ev.Add(1)
		ecCh <- ev
		return nil, nil
	}, Out(&x))
	var got atomic.Int64
	b := submitAny(rt, func(*Ctx) (any, error) {
		got.Store(int64(x))
		return nil, nil
	}, In(&x))
	// completer is an independent task that finishes a's event from its
	// own body.
	completer := submitAny(rt, func(c *Ctx) (any, error) {
		ev := <-ecCh
		x = 7
		ev.DoneFrom(c)
		return nil, nil
	})
	for _, h := range []*anyFuture{a, b, completer} {
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
	var hSucc, hFail *anyFuture
	var succRan atomic.Bool
	ran := make(chan struct{})
	err := rt.Run(func(c *Ctx) {
		ev := make(chan *EventCounter, 1)
		goAny(c, func(cc *Ctx) (any, error) {
			e := cc.Events()
			e.Add(1)
			ev <- e
			return nil, nil
		}, Out(&x))
		hSucc = goAny(c, func(*Ctx) (any, error) {
			succRan.Store(true)
			return nil, nil
		}, In(&x))
		hFail = goAny(c, func(*Ctx) (any, error) {
			return nil, sentinel
		})
		go func() {
			// Fire the event only after the failure has fully aborted the
			// scope, so the successor's skip is deterministic. The abort
			// can also drain the event-holding task before its body runs;
			// then no counter arrives and Run returns without one.
			<-hFail.Done()
			select {
			case e := <-ev:
				e.Done()
			case <-ran:
			}
		}()
		c.Taskwait()
	})
	close(ran)
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
	h := submitAny(rt, func(c *Ctx) (any, error) {
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
	err := runLoop(rt, 0, 8, 1, func(c *Ctx, lo, hi int) {
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
// Add or Done must panic instead of corrupting a recycled task. That
// holds for a counter kept in the task's Handle, whether the body took
// it with Events or a timer armed it (AfterFunc), and for the heap
// counter of a task without a Handle (Spawn).
func TestEventCounterMisusePanics(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer rt.Close()
	for _, tc := range []struct {
		name string
		body func(c *Ctx, ec **EventCounter)
	}{
		{"Events", func(c *Ctx, ec **EventCounter) { *ec = c.Events() }},
		{"AfterFunc", func(c *Ctx, ec **EventCounter) {
			c.AfterFunc(time.Microsecond, nil)
			*ec = c.Events()
		}},
		{"Spawn", func(c *Ctx, ec **EventCounter) {
			c.Spawn(func(c *Ctx) {
				c.AfterFunc(time.Microsecond, nil)
				*ec = c.Events()
			})
		}},
	} {
		var ec *EventCounter
		h := submitAny(rt, func(c *Ctx) (any, error) {
			tc.body(c, &ec)
			return nil, nil
		})
		if _, err := h.Wait(nil); err != nil {
			t.Fatal(err)
		}
		mustPanic := func(name string, f func()) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: %s on a drained counter did not panic", tc.name, name)
				}
			}()
			f()
		}
		mustPanic("Add", func() { ec.Add(1) })
		mustPanic("Done", func() { ec.Done() })
		mustPanic("Add(0)", func() { ec.Add(0) })
	}
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
	h := submitAny(rt, func(c *Ctx) (any, error) {
		c.After(d)
		return nil, nil
	})
	// This task only runs if the worker was freed while the timer
	// pends.
	h2 := submitAny(rt, func(*Ctx) (any, error) {
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
	a := submitAny(rt, func(c *Ctx) (any, error) {
		c.AfterFunc(2*time.Millisecond, func() { resp = 99 })
		return nil, nil
	}, Out(&resp))
	var got int
	b := submitAny(rt, func(*Ctx) (any, error) {
		got = resp
		return nil, nil
	}, In(&resp))
	for _, h := range []*anyFuture{a, b} {
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
		inner := submitAny(rt, func(*Ctx) (any, error) { return 21, nil })
		if err := c.Await(&inner.Handle); err != nil {
			panic(err)
		}
		if v := inner.val; v.(int) != 21 {
			panic(fmt.Sprintf("awaited %v", v))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEventsAcrossConfigs smoke-tests the external completers' wiring
// on every scheduler/deps/alloc combination the thread-index space must
// cover: external decrements run dependency release and completion on
// borrowed root-shard indices, which all per-thread structures must be
// sized for.
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
			handles := make([]*anyFuture, 0, 2*n)
			for j := 0; j < n; j++ {
				j := j
				handles = append(handles, submitAny(rt, func(c *Ctx) (any, error) {
					ev := c.Events()
					ev.Add(1)
					go func() {
						cells[j] = j
						ev.Done()
					}()
					return nil, nil
				}, Out(&cells[j])))
				handles = append(handles, submitAny(rt, func(*Ctx) (any, error) {
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
	h1 := submitAny(rt, body, Commutative(&x))
	h2 := submitAny(rt, body, Commutative(&x))
	for _, h := range []*anyFuture{h1, h2} {
		if _, err := h.Wait(nil); err != nil {
			t.Fatal(err)
		}
	}
	if l, p := rt.LiveTasks(), rt.PendingEvents(); l != 0 || p != 0 {
		t.Fatalf("LiveTasks = %d, PendingEvents = %d", l, p)
	}
}

// TestDrainGraceful: Drain waits for live submissions and pending
// events — roots parked on a timer, and children parked on one after
// their parent's body returned, whose roots complete only after them.
// (What a sealed runtime does with each root kind is TestRootAdmission.)
func TestDrainGraceful(t *testing.T) {
	for _, child := range []bool{false, true} {
		t.Run(fmt.Sprintf("child=%v", child), func(t *testing.T) {
			rt := New(Config{Workers: 2})
			defer rt.Close()
			var done atomic.Int64
			park := func(c *Ctx) {
				c.AfterFunc(2*time.Millisecond, func() { done.Add(1) })
			}
			for i := 0; i < 20; i++ {
				submit(rt, func(c *Ctx) {
					if !child {
						park(c)
						return
					}
					// The child parks only once this body returned.
					returned := make(chan struct{})
					defer close(returned)
					c.Spawn(func(c *Ctx) {
						<-returned
						park(c)
					})
				})
			}
			if err := rt.Drain(context.Background()); err != nil {
				t.Fatalf("Drain = %v", err)
			}
			if done.Load() != 20 {
				t.Fatalf("%d/20 timers fired before Drain returned", done.Load())
			}
			if l, p := rt.LiveTasks(), rt.PendingEvents(); l != 0 || p != 0 {
				t.Fatalf("LiveTasks = %d, PendingEvents = %d after Drain", l, p)
			}
			// Drain again: already quiescent, still nil.
			if err := rt.Drain(context.Background()); err != nil {
				t.Fatalf("second Drain = %v", err)
			}
		})
	}
}

// TestDrainContextCancel: a Drain that cannot reach quiescence before
// its context fires returns the cause; the seal still holds, and a
// later unbounded Drain completes.
func TestDrainContextCancel(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()
	release := make(chan struct{})
	h := submitAny(rt, func(c *Ctx) (any, error) {
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

	replies := make([]*anyFuture, requests)
	for r := 0; r < requests; r++ {
		st, rp := &stage[r], &resp[r]
		key := &keys[reqKey(r)]
		submitAny(rt, func(*Ctx) (any, error) {
			*st = reqDelta(r)
			return nil, nil
		}, Out(st))
		submitAny(rt, func(c *Ctx) (any, error) {
			ec := c.Events()
			ec.Add(1)
			evs[r] = ec // published to the firing goroutines via PendingEvents below
			return nil, nil
		}, In(st), Out(rp))
		replies[r] = submitAny(rt, func(*Ctx) (any, error) {
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

// TestDrainRacesAdmission: submitters loop over every root kind —
// RunCtx, SubmitBody, SubmitLoop and SubmitReq — while Drain fires
// mid-storm, once with the inline-serving slots free and once with them
// held, so that every SubmitReq dispatches. Every call returns nil or
// ErrRuntimeDraining; the bodies of every admitted call ran before Drain
// returned and no body ran after it; a call started after Drain returned
// is rejected; and the runtime is quiescent afterwards.
func TestDrainRacesAdmission(t *testing.T) {
	kinds := []struct {
		name   string
		bodies int64 // body runs of an admitted call
		submit func(rt *Runtime, body func(*Ctx)) error
	}{
		{"run", 2, func(rt *Runtime, body func(*Ctx)) error {
			return rt.RunCtx(context.Background(), func(c *Ctx) { body(c); c.Spawn(body) })
		}},
		{"submit", 1, func(rt *Runtime, body func(*Ctx)) error {
			_, err := submitAnyCtx(context.Background(), rt, func(c *Ctx) (any, error) { body(c); return nil, nil }).Wait(nil)
			return err
		}},
		{"loop", 4, func(rt *Runtime, body func(*Ctx)) error {
			return rt.SubmitLoop(context.Background(), 0, 4, 1, func(c *Ctx, _, _ int) { body(c) }).Wait(nil)
		}},
		{"req", 2, func(rt *Runtime, body func(*Ctx)) error {
			r := NewReq()
			rt.SubmitReq(context.Background(), r, 0, func(c *Ctx) { body(c); c.Spawn(body) })
			return r.Wait()
		}},
	}
	const submitters = 8
	for _, dk := range depsKindsUnderStress() {
		for _, held := range []bool{false, true} {
			name := dk.testName() + "/serve-free"
			if held {
				name = dk.testName() + "/serve-held"
			}
			t.Run(name, func(t *testing.T) {
				rt := New(Config{Workers: 4, Deps: dk})
				defer rt.Close()
				if held {
					defer holdServeSlots(t, rt)()
				}
				var bodies, admitted, calls atomic.Int64
				var drained atomic.Bool
				body := func(*Ctx) { bodies.Add(1) }
				var wg sync.WaitGroup
				errc := make(chan error, submitters)
				for g := 0; g < submitters; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := g; ; i++ {
							late := drained.Load()
							k := kinds[i%len(kinds)]
							err := k.submit(rt, body)
							calls.Add(1)
							switch {
							case err == nil && late:
								errc <- fmt.Errorf("%s admitted after Drain returned", k.name)
								return
							case err == nil:
								admitted.Add(k.bodies)
							case !errors.Is(err, ErrRuntimeDraining):
								errc <- fmt.Errorf("%s: %v", k.name, err)
								return
							case late:
								return
							}
						}
					}(g)
				}
				for calls.Load() < 200 {
					runtime.Gosched()
				}
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				defer cancel()
				if err := rt.Drain(ctx); err != nil {
					t.Fatalf("Drain: %v", err)
				}
				atDrain := bodies.Load()
				drained.Store(true)
				wg.Wait()
				t.Logf("%d calls, %d bodies ran", calls.Load(), atDrain)
				close(errc)
				for err := range errc {
					t.Error(err)
				}
				if want := admitted.Load(); atDrain != want {
					t.Errorf("%d bodies ran before Drain returned, want %d (every admitted call's)", atDrain, want)
				}
				if l, p := rt.LiveTasks(), rt.PendingEvents(); l != 0 || p != 0 {
					t.Errorf("LiveTasks = %d, PendingEvents = %d after Drain", l, p)
				}
				for _, k := range kinds {
					if err := k.submit(rt, body); !errors.Is(err, ErrRuntimeDraining) {
						t.Errorf("%s after Drain = %v, want ErrRuntimeDraining", k.name, err)
					}
				}
				if n := bodies.Load(); n != atDrain {
					t.Errorf("%d bodies ran after Drain returned", n-atDrain)
				}
			})
		}
	}
}
