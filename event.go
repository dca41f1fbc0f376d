package repro

import "repro/internal/core"

// EventCounter defers a task's dependency release and completion until
// every registered external completion has fired; see
// core.EventCounter. Obtain one inside a task body with Ctx.Events (or
// let WithEvents hand it to you), Add before the body returns, Done
// from any goroutine when the external work finishes.
type EventCounter = core.EventCounter

// ErrRuntimeDraining is reported by root submissions rejected because
// Runtime.Drain has sealed the runtime.
var ErrRuntimeDraining = core.ErrRuntimeDraining

// WithEvents adapts an event-using body to the plain Submit/Go shape:
// the wrapper obtains the task's EventCounter and passes it alongside
// the Ctx, so call sites keep the typed-future signatures.
//
//	f := repro.Submit(rt, repro.WithEvents(func(c *repro.Ctx, ev *repro.EventCounter) (int, error) {
//		ev.Add(1)
//		conn.OnReply(func(n int) { reply = n; ev.Done() })
//		return 0, send(conn, req) // returns immediately; f resolves at Done
//	}))
//
// The returned value and error are captured at body return as usual,
// but the Future resolves — and successors release — only once the
// counter drains.
func WithEvents[T any](fn func(*Ctx, *EventCounter) (T, error)) func(*Ctx) (T, error) {
	return func(c *Ctx) (T, error) { return fn(c, c.Events()) }
}

// Await blocks the running task until f resolves and returns its typed
// result, executing other ready tasks on this worker meanwhile — the
// in-task join for futures, including futures whose tasks are parked
// on external events. Awaiting a future whose completion depends on
// the calling task deadlocks, exactly like a misplaced Taskwait.
func Await[T any](c *Ctx, f *Future[T]) (T, error) {
	if err := c.Await(&f.handle); err != nil {
		var zero T
		return zero, err
	}
	return f.v, nil
}
