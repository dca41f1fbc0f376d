package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/event"
	"repro/internal/trace"
)

// This file implements external events (the OmpSs-2/Nanos6
// "external events" API): a task body may register out-of-band
// completions — network callbacks, timers, channel readers — that must
// fire before the task releases its dependencies and completes. The
// worker that ran the body returns to the scheduler immediately; the
// final decrement, from whatever goroutine it arrives on, runs the
// release path. This is the mechanism that lets the runtime drive
// I/O-bound request graphs without holding a worker per in-flight
// request. See DESIGN.md ("External events") for the lifecycle and
// pin-protocol invariants.

// ErrRuntimeDraining is reported by root submissions rejected because
// Runtime.Drain has sealed the runtime.
var ErrRuntimeDraining = errors.New("runtime draining")

// EventCounter defers its task's dependency release and completion
// until every registered external completion has fired. Obtain one
// inside a task body with Ctx.Events, call Add before the body
// returns, and Done from any goroutine when the external work
// finishes. The counter internally holds one guard for the body
// itself, dropped when the body returns: the task releases at the
// moment the count reaches zero, whether the last decrement lands
// before or after the return (the decrement-before-return race is
// resolved by the guard, not by the caller).
//
// After the final decrement the counter is spent: further Add or Done
// calls panic, and the task — its successors now released, its handle
// resolved — is recycled as usual.
//
// A task with a Handle (Submit, Go, SubmitBody, GoBody, Run) keeps its
// counter inside that Handle, so Events, After and AfterFunc allocate
// nothing for it: a Handle resolves only once, so its counter is never
// reused and stays spent. A task without one (Spawn, SubmitReq roots,
// compiled-graph nodes) gets a counter of its own on the heap, never in
// its recycled shell.
type EventCounter struct {
	t  *Task
	rt *Runtime
	// n counts outstanding completions: 1 guard for the running body
	// plus one per registered external event. The decrement that takes
	// it to zero owns the release and immediately poisons the counter
	// with eventsDrained, so a buggy late Add or Done panics instead of
	// re-running the release on a recycled task shell.
	n atomic.Int64
}

// eventsDrained poisons a spent counter: negative enough that no legal
// Add can bring it back above zero.
const eventsDrained = -1 << 40

// Events returns the running task's event counter, creating it on
// first use. It may only be called from the task's own body, and is
// not supported on work-sharing loop tasks (a loop's completion is
// already a multi-party barrier across claimed chunks; deferring it on
// external events has no defined release point), where it panics.
func (c *Ctx) Events() *EventCounter {
	t := c.task
	if t.loop != nil {
		panic("repro: Events is not supported on work-sharing loop tasks")
	}
	if t.events == nil {
		var ec *EventCounter
		if h := t.handle; h != nil {
			ec = &h.events
		} else {
			ec = new(EventCounter)
		}
		ec.t, ec.rt = t, c.rt
		ec.n.Store(1)
		t.events = ec
	}
	return t.events
}

// Add registers n pending external completions (n > 0). It must be
// called before the counter can drain — from the task's body, or from
// a goroutine that already holds an undone registration.
func (ec *EventCounter) Add(n int) {
	if n <= 0 {
		panic("repro: EventCounter.Add requires n > 0")
	}
	if ec.n.Add(int64(n)) <= int64(n) {
		panic("repro: EventCounter.Add after the counter drained")
	}
}

// Done signals one external completion; it may be called from any
// goroutine. The call that drains the counter to zero runs the task's
// dependency release and completion cascade — successors become ready,
// the handle resolves, the scope unwinds — on the thread index of a
// borrowed root-shard lease.
func (ec *EventCounter) Done() { ec.done(event.NoThread) }

// DoneFrom is Done called from inside another task's body: the final
// decrement then reuses the calling worker's thread index instead of
// borrowing a root-shard lease, and the release keeps the worker-only
// fast paths — including the immediate-successor bypass, so a
// successor readied by this decrement can run on the calling worker
// right after the current body. c must be the Ctx of the task whose
// body is executing the call.
func (ec *EventCounter) DoneFrom(c *Ctx) { ec.done(c.worker) }

// done is the one decrement. The call that drains the counter runs the
// release on thread id, or on a borrowed root-shard lease's index when
// id is event.NoThread.
func (ec *EventCounter) done(id int) {
	switch v := ec.n.Add(-1); {
	case v > 0:
	case v < 0:
		panic("repro: EventCounter.Done without a matching Add")
	default:
		ec.n.Store(eventsDrained)
		if id == event.NoThread {
			ec.rt.releaseExternal(ec.t)
		} else {
			ec.rt.releaseDeferred(ec.t, id, true)
		}
	}
}

// timerDone is an EventCounter in the role of the timer queue's
// completer: a timer polled by a runtime thread completes on that
// thread's index, one fired by the fallback goroutine on a borrowed
// root-shard lease's. A distinct type keeps Complete off
// EventCounter's public method set; the conversion allocates nothing.
type timerDone EventCounter

func (d *timerDone) Complete(id int) { (*EventCounter)(d).done(id) }

// releaseExternal runs the deferred release from a non-worker
// goroutine. The release path touches thread-indexed structures
// (dependency mailbox, allocator free list, scheduler insertion, trace
// buffer), so it borrows the root-shard lease the task's address hashes
// to and releases on that shard's index, Workers+shard, exactly as a
// root submitter registers on it. The lease cannot deadlock (see
// core/topology.go): the release runs no body and waits on no event —
// releaseDeferred's runChain is given nil, as nothing is armed — and,
// like every lease holder, it takes its one shard lock before any
// dependency-chain lock.
func (rt *Runtime) releaseExternal(t *Task) {
	lease := rt.rootDom.AcquireFor(uintptr(unsafe.Pointer(t)))
	rt.releaseDeferred(t, rt.cfg.Workers+lease.Slot(), false)
	lease.Release()
}

// releaseDeferred finishes the lifecycle of a task whose body returned
// with events pending: the tail of execute that was skipped when the
// task parked, through the same release. The order is identical —
// commutative token release, dependency unregister, completion cascade
// — so successors, handle and scope observe exactly what an inline
// completion would have produced. When the final decrementer is itself
// a worker (isWorker), the release arms the bypass slot and the first
// successor it readied runs here with its chain, matching the worker
// release path; decrements on a borrowed lease route every readied
// successor through the scheduler (whose Add maintains the priority
// pending counts — a deferred release never lets a successor jump a
// queued higher-priority task).
func (rt *Runtime) releaseDeferred(t *Task, id int, isWorker bool) {
	rt.tracer.Emit(id, trace.KEventFire, 0)
	t.node.ReleaseCommutative()
	// Lowered before completeOne, which resolves the handle: a waiter
	// that reads PendingEvents right after Wait returns must not see
	// this task. Drain cannot pass early — the task's root has not
	// completed, so its submission stays in live.
	rt.eventsHeld.v.Add(-1)
	rt.runChain(rt.release(t, id, isWorker), id)
}

// After defers this task's completion by at least d without holding a
// worker: it registers one event and schedules its completion on the
// runtime's timer queue. Successors (and Taskwait/Future waiters)
// observe the task as complete only once the timer fires — the
// task-shaped replacement for time.Sleep in a body, at the cost of no
// worker and no goroutine. Multiple After calls (and explicit Add/Done
// pairs) compose: the task completes when all have fired.
func (c *Ctx) After(d time.Duration) { c.AfterFunc(d, nil) }

// AfterFunc runs fn after at least d, then completes one event — the
// simulated-I/O shape: write the arrived response where successors will
// read it, in fn, and the dependency order makes it visible to them. fn
// runs on whichever runtime thread fires the timer — an idle worker, or
// the timer queue's fallback goroutine — so it must be brief and must
// never block. A nil fn only completes the event.
func (c *Ctx) AfterFunc(d time.Duration, fn func()) {
	ec := c.Events()
	ec.Add(1)
	c.rt.wheel.Arm(d, fn, (*timerDone)(ec))
}

// Await blocks the running task until h resolves and returns its
// error, executing other ready tasks on this worker meanwhile (the same
// blocking-help loop as Taskwait); the result is then read from the
// future h is embedded in. It is the in-task way to join on a Handle —
// a bare Handle.Wait inside a body would park the worker goroutine
// itself. Awaiting a handle whose completion depends on this task
// deadlocks, exactly like a misplaced Taskwait.
func (c *Ctx) Await(h *Handle) error {
	c.rt.helpUntil(c.worker, h.completed)
	return h.err
}

// Drain seals the runtime against new root submissions and waits until
// every admitted submission has fully completed — a root completes only
// after every task under it, including tasks parked on pending external
// events. Sealed submissions (Run, Submit, loops)
// resolve immediately with ErrRuntimeDraining. Drain returns nil on
// quiescence or the context's cause if ctx fires first; the seal is
// permanent either way, making Drain the graceful half of shutdown:
//
//	rt.Drain(ctx) // stop intake, let in-flight requests finish
//	rt.Close()    // then stop the workers
//
// Concurrent and repeated calls are safe; they all wait for the same
// quiescence.
func (rt *Runtime) Drain(ctx context.Context) error {
	// The seal is stored before the first sum: see admit.
	rt.sealed.Store(true)
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for i := 0; ; i++ {
		if rt.live.Sum() == 0 {
			return nil
		}
		select {
		case <-done:
			return context.Cause(ctx)
		default:
		}
		if i < 128 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// PendingEvents returns the number of tasks whose bodies have returned
// but whose release is deferred on external events (diagnostics; exact
// at quiescence like LiveTasks).
func (rt *Runtime) PendingEvents() int64 { return rt.eventsHeld.v.Load() }
