package core

import (
	"context"
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
	err  error
}

// NewReq returns an empty latch, ready for SubmitReq.
func NewReq() *Req {
	return &Req{done: make(chan struct{}, 1)}
}

// SubmitReq submits a root task like SubmitBody, resolving the
// caller-pooled Req instead of allocating a Handle. body runs under a
// fresh (pooled) scope with ctx and the configured ErrorPolicy; if
// d > 0 the scope also carries a deadline d from now, observed exactly
// like a context deadline: a task that starts after it passed drains
// with context.DeadlineExceeded as the cause, and Ctx.Err reports it.
// The submission carries no root dependency accesses (serving requests
// are self-contained graphs ordered internally).
//
// When an inline-serving slot is free (see serveSlots), the calling
// goroutine executes the request itself: the root body and every ready
// descendant run right here, on the submitter's exclusive thread
// index, and SubmitReq returns only once the request fully completed —
// skipping both cross-goroutine hand-offs (submit wake-up, completion
// wake-up) of the dispatch path. A body that readies several nodes at
// once keeps only the first for this goroutine (a compiled graph's
// continuation, or the dependency release's successor bypass). The
// compiled graph's others are offered (OfferNode) into the slot's two
// hand-off cells, where this goroutine, waiting in the root's Taskwait,
// takes back the newest and runs it as a call, and an idle worker
// steals the oldest as a task, so inline serving never reduces
// parallelism; a third offer becomes a task in the scheduler, and so
// does every task readied here (a spawned child, an elevated node, one
// a hand-off gate declines). When every slot is busy, the root
// dispatches through the scheduler and Wait blocks on the latch.
//
// A deadline costs one clock read per abort check of the request's
// tasks; the cycle allocates nothing either way.
func (rt *Runtime) SubmitReq(ctx context.Context, r *Req, d time.Duration, body func(*Ctx)) {
	r.err = nil
	sc := newScope(ctx, rt.cfg.OnError)
	if d > 0 {
		sc.cancelAt = NowNS() + int64(d)
	}
	build := func(slot int) *Task { return rt.newTask(&rt.global, body, nil, slot) }
	if slot := rt.serveSlots.TryAcquire(); slot >= 0 {
		rt.submitReqInline(r, sc, build, slot)
		rt.serveSlots.Release(slot)
		return
	}
	lease := rt.rootDom.AcquireFor(uintptr(unsafe.Pointer(r)))
	rt.admit(rt.cfg.Workers+lease.Slot(), sc, nil, r, build)
	lease.Release()
}

// submitReqInline admits the request's root on the caller's exclusive
// serving slot and executes it in place: the admission arms the slot's
// bypass so the access-free root comes straight back to this goroutine
// instead of the scheduler, and the goroutine then helps execute ready
// tasks until the request's completion fold filled the latch (a sealed
// runtime fills it at once). The bypass declines a root whose scope is
// already aborted (or when higher-priority work is queued); the root
// then went through the scheduler and the helping loop drains it like
// any other task.
func (rt *Runtime) submitReqInline(r *Req, sc *scope, build func(slot int) *Task, slot int) {
	bs := &rt.bypass[slot]
	bs.armed = true
	rt.admit(slot, sc, nil, r, build)
	rt.runChain(bs.disarm(), slot)
	rt.helpUntil(slot, func() bool { return len(r.done) != 0 })
}

// Wait blocks until the submission fully completes and returns its
// aggregate error (the same folding as RunCtx: task errors per the
// ErrorPolicy, a skip marker when the root itself was drained). A
// deadline given to SubmitReq drains the tasks that start after it —
// with ErrTaskSkipped wrapping context.DeadlineExceeded — and
// completion still waits for the full drain: when Wait returns, no task
// of the submission can touch the request's state again, which is what
// makes caller-side frame reuse safe.
func (r *Req) Wait() error {
	<-r.done
	return r.err
}
