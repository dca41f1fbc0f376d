package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Req is a reusable completion latch for root submissions on the
// serving fast path (repro.CompiledGraph.Do). Where Submit allocates a
// fresh future per call, a Req is allocated once by
// the caller and carries one submission at a time: together with the
// pooled scope and task shell, a steady-state SubmitReq/Wait cycle
// allocates nothing.
//
// A Req is strictly sequential: one SubmitReq, then one Wait, then it
// may be reused. Exactly one goroutine may drive a cycle, and the next
// SubmitReq must not start before the previous Wait returned. It is
// not a broadcast handle — Wait consumes the completion.
type Req struct {
	// done is a one-slot latch, not a closed channel: completion sends
	// exactly one token per submission, Wait consumes it, and the
	// channel is ready for the next cycle without reallocation.
	done chan struct{}

	// gen invalidates deadline timers of earlier cycles: every
	// SubmitReq bumps it under mu before any other cycle state is
	// touched, and a timer callback re-checks the generation it
	// captured at arm time under the same mu, so a stale timer firing
	// into a later cycle is a no-op.
	mu  sync.Mutex
	gen uint64

	// state serializes a deadline cancel against the completion fold:
	// tryCancel holds reqCancelling only around the scope cancel, and
	// completeOne spins state into reqDone before folding and releasing
	// the scope, so the cancel path can never touch a scope that
	// completion already recycled.
	state atomic.Int32
	sc    *scope
	err   error
}

const (
	reqIdle       int32 = iota // no cancel in flight; completion may claim
	reqCancelling              // a canceller holds the scope for a cancel call
	reqDone                    // completion claimed the fold; cancel is a no-op
)

// NewReq returns an empty latch, ready for SubmitReq.
func NewReq() *Req {
	return &Req{done: make(chan struct{}, 1)}
}

// SubmitReq submits a root task like SubmitCtx, resolving the
// caller-pooled Req instead of allocating a Handle. body runs under a
// fresh (pooled) scope with ctx and the configured ErrorPolicy; if
// d > 0 the submission is additionally cancelled — not-yet-started
// tasks drain, exactly like a context deadline — when the runtime's
// timer queue fires after d, with context.DeadlineExceeded as the
// cause. The submission carries no root dependency accesses (serving
// requests are self-contained graphs ordered internally).
//
// When an inline-serving slot is free (see serveSlots), the calling
// goroutine executes the request itself: the root body and every ready
// descendant run right here, on the submitter's exclusive thread
// index, and SubmitReq returns only once the request fully completed —
// skipping both cross-goroutine hand-offs (submit wake-up, completion
// wake-up) of the dispatch path. A body that readies several tasks at
// once keeps only the first for this goroutine (a compiled graph's
// continuation, or the dependency release's successor bypass); the
// others go through the scheduler and run on the workers concurrently,
// so inline serving never reduces parallelism. When every slot is busy,
// the root dispatches through the scheduler and Wait blocks on the
// latch.
//
// A deadline costs one timer registration (a captured-generation
// closure on the timer queue); the d == 0 path allocates nothing.
func (rt *Runtime) SubmitReq(ctx context.Context, r *Req, d time.Duration, body func(*Ctx)) {
	// Bump the generation first, under mu: a stale timer of the
	// previous cycle that already passed its generation check must
	// complete its cancel attempt before the new cycle's state resets
	// (the bump waits on mu), and one that has not yet checked will see
	// the mismatch and stand down.
	r.mu.Lock()
	r.gen++
	gen := r.gen
	r.mu.Unlock()
	r.err = nil
	r.state.Store(reqIdle)
	sc := newScope(ctx, rt.cfg.OnError)
	r.sc = sc
	if d > 0 {
		rt.wheel.After(d, func() {
			r.mu.Lock()
			if r.gen == gen {
				r.tryCancel(context.DeadlineExceeded)
			}
			r.mu.Unlock()
		})
	}
	build := func(slot int) *Task { return rt.newTask(&rt.global, body, nil, slot) }
	if slot := rt.serveSlots.TryAcquire(); slot >= 0 {
		rt.submitReqInline(r, sc, build, slot)
		rt.serveSlots.Release(slot)
		return
	}
	lease := rt.rootDom.AcquireFor(uintptr(unsafe.Pointer(r)))
	rt.admit(lease.Slot(), rt.cfg.Workers+lease.Slot(), sc, nil, r, build)
	lease.Release()
}

// submitReqInline admits the request's root on the caller's exclusive
// serving slot and executes it in place: the admission arms the slot's
// bypass so the access-free root comes straight back to this goroutine
// instead of the scheduler, and the goroutine then helps execute ready
// tasks until the request's completion fold claimed the Req (a sealed
// gate claims it at once). The bypass declines a root whose scope is
// already aborted (or when higher-priority work is queued); the root
// then went through the scheduler and the helping loop drains it like
// any other task.
func (rt *Runtime) submitReqInline(r *Req, sc *scope, build func(slot int) *Task, slot int) {
	bs := &rt.bypass[slot]
	bs.armed = true
	rt.admit((slot-rt.serveSlots.Base())%rt.rootDom.Shards(), slot, sc, nil, r, build)
	rt.runChain(bs.disarm(), slot)
	rt.helpUntil(slot, func() bool { return r.state.Load() == reqDone })
}

// claim takes the completion fold from any in-flight deadline cancel:
// it waits out a cancel (tryCancel holds reqCancelling only around the
// scope cancel), after which the timer can no longer reach the scope.
func (r *Req) claim() {
	for i := 0; !r.state.CompareAndSwap(reqIdle, reqDone); i++ {
		spinOrYield(i)
	}
	r.sc = nil
}

// Wait blocks until the submission fully completes and returns its
// aggregate error (the same folding as RunCtx: task errors per the
// ErrorPolicy, a skip marker when the root itself was drained). A
// deadline armed at SubmitReq cancels the scope from the timer queue —
// not-yet-started tasks drain with ErrTaskSkipped wrapping
// context.DeadlineExceeded — and completion still waits for the full
// drain: when Wait returns, no task of the submission can touch the
// request's state again, which is what makes caller-side frame reuse
// safe.
func (r *Req) Wait() error {
	<-r.done
	return r.err
}

// tryCancel cancels the in-flight submission's scope unless completion
// already claimed the fold. Safe from any goroutine; the state machine
// keeps it off a scope that completion is releasing.
func (r *Req) tryCancel(cause error) {
	if !r.state.CompareAndSwap(reqIdle, reqCancelling) {
		return // completing (or already done): nothing left to cancel
	}
	if sc := r.sc; sc != nil {
		sc.cancelExternal(cause)
	}
	r.state.Store(reqIdle)
}
