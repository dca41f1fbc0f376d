package core

import "context"

// Run submits a root task and blocks until it and all its descendants
// have fully completed. It returns the scope's aggregate error: task
// errors (from future bodies, Ctx.Fail or recovered panics) joined per the
// configured ErrorPolicy, or nil when every task succeeded. Run may be
// called repeatedly, from multiple goroutines; submissions whose
// accesses hash to different root-domain shards register in parallel,
// and same-shard registrations serialize only on that shard's lock.
func (rt *Runtime) Run(body func(*Ctx), accs ...AccessSpec) error {
	return rt.RunCtx(context.Background(), body, accs...)
}

// RunCtx is Run honoring a caller context: when ctx is cancelled (or
// its deadline passes), tasks of this submission that have not started
// are drained without executing — the dependency graph and completion
// accounting still unwind normally, so RunCtx returns only after the
// scope has fully drained, with the cancellation cause. Tasks whose
// bodies already started run to completion; they can poll Ctx.Err to
// stop early.
func (rt *Runtime) RunCtx(ctx context.Context, body func(*Ctx), accs ...AccessSpec) error {
	var h Handle
	rt.submitRoot(ctx, &h, accs, func(slot int) *Task {
		return rt.newTask(&rt.global, body, accs, slot)
	})
	// The root's completion folded the scope's aggregate error into the
	// handle (completeOne); read that snapshot rather than recomputing,
	// so Run's return and the Handle always agree.
	return h.Wait(nil)
}

// SubmitBody submits a root task that runs b and resolves h, the Handle
// embedded in the future b belongs to, without waiting. Submissions
// participate in root-level dependency chains exactly like Run roots
// (matching accesses order them); cancellation of ctx drains the task
// (and any descendants) as in RunCtx, and h reports the cause. The typed
// façade wrapper is repro.SubmitCtx.
func (rt *Runtime) SubmitBody(ctx context.Context, h *Handle, b Body, accs ...AccessSpec) {
	rt.submitRoot(ctx, h, accs, func(slot int) *Task {
		t := rt.newTask(&rt.global, nil, accs, slot)
		t.fn = b
		return t
	})
}

// submitRoot is the lease path of every Handle root (Run, SubmitBody,
// SubmitLoop): it leases the root-domain shards the access addresses
// hash to, in ascending order, and admits the root that build makes
// under a fresh (pooled) error/cancellation scope, resolving h. The
// lease's lowest shard selects the submitter slot whose thread-local
// structures (allocator free list, dependency mailbox, scheduler
// insertion index, trace buffer) the registration uses exclusively, so
// submissions on disjoint shard sets run this whole path in parallel.
func (rt *Runtime) submitRoot(ctx context.Context, h *Handle, accs []AccessSpec, build func(slot int) *Task) {
	// Attributes carry no address: they join no chain and lease no shard.
	var mask uint64
	for i := range accs {
		if accs[i].attr == attrNone {
			mask |= rt.rootDom.Bit(accs[i].addr)
		}
	}
	lease := rt.rootDom.AcquireMask(mask)
	rt.admit(rt.cfg.Workers+lease.Slot(), newScope(ctx, rt.cfg.OnError), h, nil, build)
	lease.Release()
}

// admit is root admission, the one way a root task enters the runtime:
// count the root live on slot, build it there, make it the owner of
// scope sc and of its latch (a Handle h or a Req r, exactly one
// non-nil) and register it into the root domain. The caller owns slot
// for the call — through a root-domain lease or an inline-serving
// slot. A sealed runtime builds nothing: the count is taken back, the
// scope is released and the latch resolves with ErrRuntimeDraining at
// once. build is only called, never stored, so a caller's closure stays
// on its stack.
//
// The live count is the drain gate. It counts submissions, not tasks:
// completeOne takes it back only at the root's completion, which follows
// every task and offer under the root. admit raises it before it reads
// sealed, and Drain stores sealed before it sums live; with
// sequentially consistent atomics (Dekker), either this read sees the
// seal, or Drain's sum sees the increment and waits for the root to
// complete.
func (rt *Runtime) admit(slot int, sc *scope, h *Handle, r *Req, build func(slot int) *Task) {
	rt.live.Add(slot, 1)
	if rt.sealed.Load() {
		rt.live.Add(slot, -1)
		sc.release()
		if h != nil {
			h.err = ErrRuntimeDraining
			h.complete()
		} else {
			r.err = ErrRuntimeDraining
			r.done <- struct{}{}
		}
		return
	}
	t := build(slot)
	t.sc = sc
	t.handle = h
	t.req = r
	t.ownsScope = true
	rt.registerWith(&rt.global, rt.rootDom, t, slot)
}
