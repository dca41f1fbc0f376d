package repro

import (
	"context"

	"repro/internal/core"
)

// handle names core.Handle for embedding without exporting the field.
type handle = core.Handle

// Future is the typed completion handle of a submitted task: it
// delivers the task's result and error once the task has *fully*
// completed — body finished, every descendant complete, and every
// external event registered through Ctx.Events drained. Futures are
// created by Submit (root tasks) and Go (child tasks).
//
// A Future is also its task's body: it embeds the completion Handle
// and holds the result in place, so a submission allocates the Future
// and nothing else, and Done makes a channel only when asked before
// the task completed.
type Future[T any] struct {
	handle
	fn func(*Ctx) (T, error)
	v  T
}

// futureBody is a Future in its role as the task's body: a distinct
// type keeps Run off Future's method set; the conversion allocates
// nothing.
type futureBody[T any] Future[T]

// Run implements core.Body: run the user function once, keep its result.
func (b *futureBody[T]) Run(c *Ctx) error {
	var err error
	b.v, err = b.fn(c)
	b.fn = nil
	return err
}

// Done returns a channel closed at the task's full completion.
func (f *Future[T]) Done() <-chan struct{} { return f.handle.Done() }

// Wait blocks until the task fully completes or ctx is cancelled. It
// returns the task's value, or the task's error — a body error, a
// *PanicError for a recovered panic, or an error matching
// ErrTaskSkipped when the task was drained by a cancelled scope. A nil
// ctx waits unconditionally. If ctx is cancelled before the task
// completes, Wait returns the cancellation cause; the task itself keeps
// running (cancel the submission context to stop it).
func (f *Future[T]) Wait(ctx context.Context) (T, error) {
	if err := f.handle.Wait(ctx); err != nil {
		var zero T
		return zero, err
	}
	return f.v, nil
}

// Submit submits a root task whose body returns (T, error) and returns
// its Future without waiting. Submissions participate in root-level
// dependency chains exactly like Run roots: matching accesses order
// them against other Submit and Run roots.
func Submit[T any](rt *Runtime, fn func(*Ctx) (T, error), accs ...AccessSpec) *Future[T] {
	return SubmitCtx(context.Background(), rt, fn, accs...)
}

// SubmitCtx is Submit honoring a caller context: if ctx is cancelled
// before the task starts, the task is drained without executing and the
// Future reports the cause.
func SubmitCtx[T any](ctx context.Context, rt *Runtime, fn func(*Ctx) (T, error), accs ...AccessSpec) *Future[T] {
	f := &Future[T]{fn: fn}
	rt.SubmitBody(ctx, &f.handle, (*futureBody[T])(f), accs...)
	return f
}

// Go spawns a future-backed child task from inside a task body (it may
// only be called with the spawning task's own Ctx, like Ctx.Spawn, and
// like it may run ready tasks first). The child shares the parent's
// submission scope: its error propagates to the root (cancelling
// unstarted scope tasks under FailFast) in addition to being delivered
// through the Future.
func Go[T any](c *Ctx, fn func(*Ctx) (T, error), accs ...AccessSpec) *Future[T] {
	f := &Future[T]{fn: fn}
	c.GoBody(&f.handle, (*futureBody[T])(f), accs...)
	return f
}

// GoErr spawns an error-only child task: Go for bodies with no result.
func GoErr(c *Ctx, fn func(*Ctx) error, accs ...AccessSpec) *Future[struct{}] {
	return Go(c, func(cc *Ctx) (struct{}, error) { return struct{}{}, fn(cc) }, accs...)
}
