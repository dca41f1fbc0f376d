package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrorPolicy selects how task errors propagate through a submission
// scope (one Run/RunCtx/Submit call and every task spawned under it).
type ErrorPolicy uint8

const (
	// FailFast cancels the scope on the first task error: tasks that
	// have not started yet are drained without executing their bodies
	// (they complete immediately with a *SkipError*), and the root
	// returns the originating error. This is the default.
	FailFast ErrorPolicy = iota
	// CollectAll lets every task run regardless of earlier failures;
	// the root returns the accumulated errors joined with errors.Join.
	CollectAll
)

// String names the policy for diagnostics.
func (p ErrorPolicy) String() string {
	switch p {
	case FailFast:
		return "fail-fast"
	case CollectAll:
		return "collect-all"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// ErrTaskSkipped marks tasks that were drained without executing
// because their scope was cancelled (by a caller's context or, under
// FailFast, by an earlier task error). Test with errors.Is; the
// cancellation cause is also reachable through errors.Is/As.
var ErrTaskSkipped = errors.New("task skipped")

// skipError is the error recorded on a drained task's handle: it
// unwraps to both ErrTaskSkipped and the cancellation cause.
type skipError struct{ cause error }

func (e *skipError) Error() string {
	return "task skipped: " + e.cause.Error()
}

func (e *skipError) Unwrap() []error { return []error{ErrTaskSkipped, e.cause} }

// PanicError wraps a panic recovered from a task body. The runtime
// converts body panics into errors rather than crashing the worker
// pool; the panic value and the goroutine stack at recovery time are
// preserved for debugging.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the formatted stack of the panicking goroutine.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("task panicked: %v", e.Value)
}

// scope is the error/cancellation domain of one root submission: the
// root task of a Run, RunCtx or Submit call and all of its descendants
// share one scope. It records task failures, applies the error policy,
// and mirrors the caller's context cancellation and the request
// deadline into the runtime (the execute path consults abortCause
// before running each body).
type scope struct {
	ctx    context.Context // caller context; nil for plain Run/Submit
	policy ErrorPolicy

	// done caches ctx.Done() so the per-task abort check is a channel
	// poll rather than a context-tree walk; nil for non-cancellable
	// contexts (Background), which skips the poll entirely.
	done <-chan struct{}

	// cancelAt is the request deadline SubmitReq stamps, in NowNS
	// nanoseconds; 0 means none. It is not the EDF Task.deadline: it
	// cancels, like a context deadline, and orders nothing.
	cancelAt int64

	// aborted flips once; cause holds the first cancellation cause.
	// ctxAborted additionally marks that the abort came from the
	// caller's context or the request deadline (observed during
	// execution), as opposed to a FailFast task error already recorded
	// in errs.
	aborted    atomic.Bool
	ctxAborted atomic.Bool
	cause      atomic.Pointer[error]

	// mu serializes fail's appends to errs; err and release, which run
	// after every fail, read and clear errs without it.
	mu   sync.Mutex
	errs []error
}

// scopePool recycles scopes across root submissions: a scope's
// lifetime ends strictly before its root task's full completion
// releases it (every descendant dropped its reference when it
// completed, and the root completes last), so submitRoot can reuse
// shells without any pin protocol. This keeps a root submit
// allocation-light together with the pooled task shell.
var scopePool = sync.Pool{New: func() any { return new(scope) }}

// newScope builds (or recycles) the scope for one root submission.
// Context cancellation is observed synchronously by abortCause — the
// context package closes Done before a CancelFunc returns, so every
// task executed after cancellation drains deterministically.
func newScope(ctx context.Context, policy ErrorPolicy) *scope {
	sc := scopePool.Get().(*scope)
	sc.ctx = ctx
	sc.policy = policy
	if ctx != nil {
		sc.done = ctx.Done()
	}
	return sc
}

// release returns the scope to the pool. It must only be called once no
// task of the submission can touch the scope again: completeOne calls
// it at the scope-owning root's full completion, after folding the
// aggregate error into the handle. Like err it takes no lock: every
// fail happened in a task that completed before the owner, and the
// alive decrements of that completion order the fail before this call.
func (sc *scope) release() {
	sc.ctx = nil
	sc.done = nil
	sc.policy = FailFast
	sc.cancelAt = 0
	sc.aborted.Store(false)
	sc.ctxAborted.Store(false)
	sc.cause.Store(nil)
	clear(sc.errs) // drop the error references, keep the capacity
	sc.errs = sc.errs[:0]
	scopePool.Put(sc)
}

// fail records one task failure and, under FailFast, cancels the scope
// so not-yet-started tasks are drained.
func (sc *scope) fail(err error) {
	if sc == nil {
		return
	}
	sc.mu.Lock()
	sc.errs = append(sc.errs, err)
	sc.mu.Unlock()
	if sc.policy == FailFast {
		sc.cancel(err)
	}
}

// cancel aborts the scope with cause; the first caller wins.
func (sc *scope) cancel(cause error) {
	if cause == nil {
		cause = context.Canceled
	}
	sc.cause.CompareAndSwap(nil, &cause)
	sc.aborted.Store(true)
}

// abortCause returns the cancellation cause, or nil while the scope is
// live. It is the per-task hot-path check — one atomic load and one
// compare, plus a clock read for deadlined submissions and a poll of the
// caller context's Done channel for cancellable ones — and is safe on a
// nil scope (tasks of the global domain). It is where every cancellation
// is observed: a FailFast failure sets aborted, and the request
// deadline and the caller's context cancel here, on first sight.
func (sc *scope) abortCause() error {
	if sc == nil {
		return nil
	}
	if sc.aborted.Load() {
		return *sc.cause.Load()
	}
	if sc.cancelAt != 0 && NowNS() >= sc.cancelAt {
		return sc.observe(context.DeadlineExceeded)
	}
	if sc.done != nil {
		select {
		case <-sc.done:
			return sc.observe(context.Cause(sc.ctx))
		default:
		}
	}
	return nil
}

// observe cancels the scope with an external cause seen during
// execution and marks it for the aggregate error.
func (sc *scope) observe(cause error) error {
	sc.cancel(cause)
	sc.ctxAborted.Store(true)
	return *sc.cause.Load()
}

// err returns the scope's aggregate error: the context or deadline
// cancellation cause — only if the cancellation was actually observed
// during execution (something drained or a body saw Ctx.Err), so a
// deadline passing after every task already completed does not fail a
// successful run — joined with every recorded task error. Skipped tasks
// are not errors of the scope; only the failure (or cancellation) that
// caused the skipping is reported. It runs only at the scope owner's
// full completion, after every fail (see release), so it reads errs
// without the lock.
func (sc *scope) err() error {
	if sc.ctxAborted.Load() {
		return errors.Join(append([]error{*sc.cause.Load()}, sc.errs...)...)
	}
	return errors.Join(sc.errs...)
}

// Handle is the completion latch of a submitted task: it carries the
// task's error and resolves at the task's *full* completion (body
// finished and every descendant complete). Its zero value is ready to
// use, and it is meant to be embedded: the typed repro.Future[T] embeds
// one next to its result, so a result-delivering submission is a single
// allocation.
//
// The done channel is made lazily, as context.cancelCtx makes its own:
// the slot holds the channel a waiter asked for before completion, or
// the shared closedchan when completion came first. A task nobody
// waits on while it runs never gets a channel.
type Handle struct {
	done atomic.Value // of chan struct{}
	err  error
	// events is the task's event counter once its body calls
	// Ctx.Events (see EventCounter).
	events EventCounter
}

// closedchan is the done channel of every Handle whose task completed
// before anyone asked for one.
var closedchan = make(chan struct{})

func init() { close(closedchan) }

// Done returns a channel closed when the task has fully completed.
func (h *Handle) Done() <-chan struct{} {
	if d := h.done.Load(); d != nil {
		return d.(chan struct{})
	}
	if ch := make(chan struct{}); h.done.CompareAndSwap(nil, ch) {
		return ch
	}
	return h.done.Load().(chan struct{}) // completion won the slot
}

// completed reports whether the task has fully completed, without
// making a channel: the in-task wait (Ctx.Await) polls it.
func (h *Handle) completed() bool {
	d, _ := h.done.Load().(chan struct{})
	if d == nil {
		return false
	}
	select {
	case <-d:
		return true
	default:
		return false
	}
}

// complete resolves the handle: close the channel a waiter made, or
// install closedchan so later Done calls make none. The task's error is
// written before, and published by, this call.
func (h *Handle) complete() {
	if !h.done.CompareAndSwap(nil, closedchan) {
		close(h.done.Load().(chan struct{}))
	}
}

// Wait blocks until the task fully completes or ctx is cancelled, and
// returns the task's error. A nil ctx waits unconditionally. If ctx is
// cancelled first, Wait returns the cancellation cause; the task itself
// keeps running (cancel its submission context to stop it).
func (h *Handle) Wait(ctx context.Context) error {
	// A completed task wins over a cancelled context.
	if h.completed() {
		return h.err
	}
	var cancel <-chan struct{} // nil, never ready, for a nil ctx
	if ctx != nil {
		cancel = ctx.Done()
	}
	select {
	case <-h.Done():
		return h.err
	case <-cancel:
		return context.Cause(ctx)
	}
}
