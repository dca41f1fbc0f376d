package core

import "context"

// anyFuture is the untyped future core's tests submit through
// SubmitBody and GoBody: a Handle plus the body and its result, in one
// allocation, as repro.Future[T] is for the façade.
type anyFuture struct {
	Handle
	fn  func(*Ctx) (any, error)
	val any
}

// Run implements Body.
func (f *anyFuture) Run(c *Ctx) error {
	v, err := f.fn(c)
	f.fn, f.val = nil, v
	return err
}

// Wait is Handle.Wait that also returns the task's result, nil on error.
func (f *anyFuture) Wait(ctx context.Context) (any, error) {
	if err := f.Handle.Wait(ctx); err != nil {
		return nil, err
	}
	return f.val, nil
}

// submitAny submits fn as a root task and returns its future.
func submitAny(rt *Runtime, fn func(*Ctx) (any, error), accs ...AccessSpec) *anyFuture {
	return submitAnyCtx(context.Background(), rt, fn, accs...)
}

// submitAnyCtx is submitAny under a caller context.
func submitAnyCtx(ctx context.Context, rt *Runtime, fn func(*Ctx) (any, error), accs ...AccessSpec) *anyFuture {
	f := &anyFuture{fn: fn}
	rt.SubmitBody(ctx, &f.Handle, f, accs...)
	return f
}

// goAny spawns fn as a child of c's task and returns its future.
func goAny(c *Ctx, fn func(*Ctx) (any, error), accs ...AccessSpec) *anyFuture {
	f := &anyFuture{fn: fn}
	c.GoBody(&f.Handle, f, accs...)
	return f
}

// runLoop runs body over [lo, hi) as one root loop and waits for it.
func runLoop(rt *Runtime, lo, hi, grain int, body func(*Ctx, int, int), accs ...AccessSpec) error {
	return rt.SubmitLoop(context.Background(), lo, hi, grain, body, accs...).Wait(nil)
}
