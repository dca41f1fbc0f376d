package core

import (
	"context"
	"sync"
	"sync/atomic"
)

// This file implements work-sharing loop tasks (OmpSs-2 taskloop /
// taskfor): a single logical task that owns an iteration range and is
// executed cooperatively by several workers, each claiming chunks from
// the loop's remaining span. Compared to spawning one task per chunk,
// the loop pays the dependency/scheduling cost once for the whole range
// — its accesses, its readiness, its release are all singular events —
// while still spreading the iterations across the machine.
//
// Execution model. The loop is an ordinary Task (it registers accesses,
// chains, bypasses and completes like any other); what differs is its
// body. When a worker starts executing the loop (the *owner* task), it
// publishes a *steal descriptor* — a pooled, access-free child task
// whose body is an entry point into the same claim loop — and begins
// claiming chunks. A worker that picks the descriptor up publishes the
// next descriptor and joins the claiming. A descriptor is an ordinary
// task: its ready callback sends it through the scheduler like any
// other, so the priority policy orders it, the pending count counts it
// and the enqueue wakes a parked worker for it. A stealer that sees a
// higher-level task queued stops claiming (loopClaim), which bounds how
// long a running descriptor holds its worker. The owner's body returns
// only after the span is drained AND every descriptor has completed (it
// helps execute ready tasks while waiting, like Taskwait), so the loop's
// dependency release — and therefore the immediate-successor bypass to
// whatever the final chunk unblocks — happens exactly once, after the
// last chunk.
//
// Claiming. The remaining span is a single atomic cursor. A claim takes
// half of what remains, capped at a per-claim maximum of
// range/(2·workers) and floored at the grain, then runs its claim in
// grain-sized chunks, re-checking the scope's abort cause between
// chunks. Geometrically shrinking claims give guided-self-scheduling
// load balance; the cap keeps the first claimer from walking off with
// half the loop.
//
// Cancellation. Chunks honor scope cancellation/FailFast exactly like
// tasks: a claimer that observes the abort cause stops claiming, the
// remaining iterations are skipped, and the loop's handle reports an
// error matching ErrTaskSkipped wrapping the cause — while the loop
// itself still completes normally (accounting, release, recycling).

// loopGrainTarget is the chunks-per-worker target of the adaptive grain:
// enough chunks that late joiners find work, few enough that per-chunk
// bookkeeping stays negligible.
const loopGrainTarget = 8

// loopState is the shared state of one taskloop, referenced by the
// owner task and every steal descriptor. It is pooled: the owner's full
// completion — which strictly follows every descriptor's — releases it.
type loopState struct {
	owner *Task
	body  func(*Ctx, int, int)

	lo, hi   int64
	grain    int64
	maxClaim int64

	// next is the claim cursor: iterations in [next, hi) are unclaimed.
	next atomic.Int64

	// skipped records that at least one chunk was abandoned because the
	// scope aborted; the owner folds it into the handle as a skip error.
	skipped atomic.Bool

	// fail holds the first error of a chunk that executed under a steal
	// descriptor (descriptors have no handle of their own — see
	// Task.fail). The owner folds it into the loop's handle after the
	// descriptors complete, so SubmitLoop callers observe chunk
	// failures even under CollectAll, where no scope abort occurs.
	fail atomic.Pointer[error]
}

var loopPool = sync.Pool{New: func() any { return new(loopState) }}

// newLoopTask builds (without registering) the owner task of a loop
// over [lo, hi) with the given grain (<= 0 selects the adaptive grain).
func (rt *Runtime) newLoopTask(parent *Task, lo, hi, grain int, body func(*Ctx, int, int), accs []AccessSpec, worker int) *Task {
	t := rt.newTask(parent, nil, accs, worker)
	ls := loopPool.Get().(*loopState)
	ls.owner = t
	ls.body = body
	ls.lo = int64(lo)
	ls.hi = int64(hi)
	if ls.hi < ls.lo {
		ls.hi = ls.lo
	}
	ls.next.Store(ls.lo)
	n := ls.hi - ls.lo
	workers := int64(rt.cfg.Workers)
	g := int64(grain)
	if g <= 0 {
		g = n / (workers * loopGrainTarget)
		if g < 1 {
			g = 1
		}
	}
	ls.grain = g
	// Per-claim cap: half a fair share of the whole range, never below
	// the grain (a zero cap would stall the claim loop).
	ls.maxClaim = n / (2 * workers)
	if ls.maxClaim < g {
		ls.maxClaim = g
	}
	ls.skipped.Store(false)
	ls.fail.Store(nil)
	t.loop = ls
	return t
}

// putLoopState recycles a loop's shared state once the owner has fully
// completed (every descriptor completes strictly earlier).
func putLoopState(ls *loopState) {
	ls.owner = nil
	ls.body = nil
	loopPool.Put(ls)
}

// SubmitLoop submits body over [lo, hi) as one root work-sharing loop
// task without waiting; the Handle resolves at the loop's full
// completion (every chunk drained). grain <= 0 selects the adaptive
// grain (about loopGrainTarget chunks per worker). The loop's accesses
// join root-level dependency chains exactly like Run roots. ctx
// cancellation skips unexecuted chunks; the Handle then reports an
// error matching ErrTaskSkipped wrapping the cause. The façade wrappers
// are repro.ForEach and repro.ForReduce.
func (rt *Runtime) SubmitLoop(ctx context.Context, lo, hi, grain int, body func(*Ctx, int, int), accs ...AccessSpec) *Handle {
	h := new(Handle)
	rt.submitRoot(ctx, h, accs, func(slot int) *Task {
		return rt.newLoopTask(&rt.global, lo, hi, grain, body, accs, slot)
	})
	return h
}

// Loop spawns a work-sharing loop task as a child of the running task:
// body executes over [lo, hi) in chunks, on whichever workers join.
// Like Spawn it may only be called from the task's own body, and may
// run ready tasks first; Taskwait waits for the whole loop (the loop is
// one child; it completes when its last chunk drains). grain <= 0
// selects the adaptive grain. The chunk body may be called concurrently
// from several workers on disjoint chunks; it must not call
// Spawn-family methods of a Ctx other than its own argument.
func (c *Ctx) Loop(lo, hi, grain int, body func(*Ctx, int, int), accs ...AccessSpec) {
	t := c.rt.newLoopTask(c.task, lo, hi, grain, body, accs, c.worker)
	c.rt.register(c.task, t, c.worker)
}

// runLoopBody is the body of both the loop owner and its steal
// descriptors: recruit one more participant if there is enough span
// left, then claim and execute chunks until the span drains. The owner
// additionally waits for every outstanding descriptor (helping with
// ready work meanwhile) so the loop's release happens after the final
// chunk, and records the skip marker when cancellation abandoned part
// of the range.
//
// Both halves run under defers because a panicking chunk body unwinds
// through here before runBody's recover fires: a participant that dies
// mid-claim has abandoned claimed iterations (the cursor is already
// past them), and the owner must wait for its descriptors even while
// panicking — otherwise the loop's accesses would release with stolen
// chunks still executing.
func (rt *Runtime) runLoopBody(c *Ctx, t *Task) {
	ls := t.loop
	claimDone := false
	if t != ls.owner {
		defer func() {
			if !claimDone {
				ls.skipped.Store(true)
			}
		}()
		rt.maybeRecruit(ls, c.worker)
		rt.loopClaim(c, t, ls)
		claimDone = true
		return
	}
	defer func() {
		if !claimDone {
			ls.skipped.Store(true)
		}
		rt.helpWhileChildren(t, c.worker)
		// Every descriptor has completed (alive-count barrier above), so
		// their failure recordings happened-before these reads. First
		// error wins on the handle, matching Task.fail: a chunk error
		// from a descriptor beats the skip marker it caused.
		if t.handle != nil && t.handle.err == nil {
			if pe := ls.fail.Load(); pe != nil {
				t.handle.err = *pe
			}
		}
		if ls.skipped.Load() && t.handle != nil && t.handle.err == nil {
			if cause := t.sc.abortCause(); cause != nil {
				t.handle.err = &skipError{cause: cause}
			}
		}
	}()
	rt.maybeRecruit(ls, c.worker)
	rt.loopClaim(c, t, ls)
	claimDone = true
}

// maybeRecruit publishes one steal descriptor — an access-free pooled
// child task of the loop owner that enters the claim loop — when the
// remaining span could still feed another worker. Descriptors are
// registered from whichever worker is executing a chunk; that is safe
// concurrently because access-free registration touches no domain map,
// only atomic accounting.
func (rt *Runtime) maybeRecruit(ls *loopState, worker int) {
	// A lone worker can never be joined: publishing a descriptor would
	// only create a dead task it must later execute itself.
	if rt.cfg.Workers == 1 {
		return
	}
	if ls.hi-ls.next.Load() <= ls.grain {
		return
	}
	owner := ls.owner
	if owner.sc.abortCause() != nil {
		return
	}
	d := rt.newTask(owner, nil, nil, worker)
	d.loop = ls
	// Chunk threads never help: a descriptor bypasses the spawn window.
	rt.registerWith(owner, nil, d, worker)
}

// loopClaim claims and runs chunks until the loop's span is exhausted
// or the scope aborts. Each claim takes half the remaining span (capped
// at maxClaim, floored at the grain) in one CAS, then executes it in
// grain-sized chunks with an abort check before each chunk.
func (rt *Runtime) loopClaim(c *Ctx, t *Task, ls *loopState) {
	g := ls.grain
	for {
		if t.sc.abortCause() != nil {
			if ls.next.Load() < ls.hi {
				ls.skipped.Store(true)
			}
			return
		}
		// A stealing participant yields between claims when a task of a
		// higher priority level is queued: it stops claiming and returns
		// to the scheduler (which will serve the higher level first),
		// bounding the loop-side priority inversion to one claim. The
		// owner never yields — it must drain the span, and the queued
		// task is picked up by the workers the yield frees.
		if t != ls.owner && rt.higherPriPending(int8(t.epri.Load())) {
			return
		}
		cur := ls.next.Load()
		rem := ls.hi - cur
		if rem <= 0 {
			return
		}
		take := rem / 2
		if take > ls.maxClaim {
			take = ls.maxClaim
		}
		if take < g {
			take = g
		}
		if take > rem {
			take = rem
		}
		if !ls.next.CompareAndSwap(cur, cur+take) {
			continue // another claimer moved the cursor; re-read
		}
		end := cur + take
		for lo := cur; lo < end; lo += g {
			hi := lo + g
			if hi > end {
				hi = end
			}
			if t.sc.abortCause() != nil {
				// The rest of this claim is already past the cursor and
				// can never run: mark the skip and stop.
				ls.skipped.Store(true)
				return
			}
			ls.body(c, int(lo), int(hi))
		}
	}
}
