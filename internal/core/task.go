package core

import (
	"context"
	"sync/atomic"
	"unsafe"

	"repro/internal/deps"
	"repro/internal/sched"
)

// Task is one unit of work with data dependencies. Tasks are created
// with Runtime.Run (root tasks) or Ctx.Spawn (nested tasks) and recycled
// through the configured allocator once fully complete (body finished and
// every descendant fully complete).
//
// Field order is a performance contract (pinned by TestTaskLayout; line
// map in DESIGN.md, "Task lifetime and memory"). A recycled shell is
// written by the core that creates the next task in it and again by the
// core that executes and completes that task, so every cache line both
// touch crosses between them once per task. Everything an access-free
// task's lifecycle touches sits in the first four lines, and both
// cores write only two of them, lines 1 and 2: lines 0 and 3 are only
// read. The lines are the ones memory holds: a pointerful object past
// 512 bytes follows an 8-byte allocator header, so the shell starts 8
// bytes into a line, and line k holds shell bytes [64k-8, 64k+56).
type Task struct {
	// Line 0 — completion-side references: tested by execute and
	// completeOne, cleared by resetBody only when set; a plain Spawn
	// never writes them, so for Spawn-only tasks the line stays clean
	// in every core's cache.

	// handle, when non-nil (roots and future-backed spawns), receives
	// the task's result/error and is closed at full completion.
	handle *Handle

	// req, when non-nil (SubmitReq roots), is the caller-pooled
	// completion latch that replaces the handle on the serving fast
	// path: completeOne folds the scope's aggregate error into it and
	// signals it after releasing the scope.
	req *Req

	// loop, when non-nil, marks a work-sharing loop participant: the
	// loop's owner task (loop.owner == this task) or one of its steal
	// descriptors. The shared state is cleaned up in completeOne, which
	// is why resetBody does not touch it.
	loop *loopState

	// events, when non-nil, is the task's external-event counter
	// (lazily created by Ctx.Events): the body returned — or will
	// return — with out-of-band completions pending, and the release
	// path runs at the final decrement instead of inline in execute.
	// Never in the shell, on purpose: it lives in the task's Handle or
	// on the heap, so a buggy late Done panics on the spent counter
	// instead of corrupting a recycled shell.
	events *EventCounter

	fn Body // result-delivering body (futures); body xor fn

	// ownsScope marks the root task of a scope: its full completion
	// releases the scope's context registration and folds the scope's
	// aggregate error into the handle.
	ownsScope bool

	_ [15]byte

	// Line 1 — the attribute line: written by newTask, read by the
	// scheduler and execute, wiped by resetBody. While a task's body
	// runs (and spawns) only its own thread writes this line, so the
	// children's newTask reads of parent.sc/pri/inherit/deadline stay
	// cache hits.

	body   func(*Ctx)
	parent *Task

	// sc is the error/cancellation scope of the root submission this
	// task belongs to, inherited from the parent on spawn. Tasks of the
	// global domain itself have a nil scope.
	sc *scope

	// deadline is the task's absolute scheduling deadline in
	// nanoseconds on the runtime's monotonic clock (NowNS); 0 means no
	// deadline. Inherited from the parent like pri and overridden by a
	// Deadline clause; read by the EDF policy, which sorts deadline-less
	// tasks last. newTask stores it at most once per incarnation (when
	// it differs from the shell's), but the EDF
	// heap may still read it through a stale promotion duplicate — a
	// queue entry that outlived its task and points at a recycled shell
	// — so it is atomic like epri.
	deadline atomic.Int64

	// spawned counts the children this task's body handed out —
	// registered (register) or offered (OfferNode) — since the last
	// fold into alive: a body-side spawn or offer raises this plain
	// word instead of the alive line its children's completions
	// lower. Only the thread running the body reads or writes it, and
	// that thread already owns this line. While it is non-zero, alive
	// carries aliveBias, so completions of privately counted children
	// cannot take alive to zero; the fold (Task.fold) moves the count
	// into alive at Taskwait and at body end, before any other thread
	// may complete the task.
	spawned int64

	// epri is the task's *effective* priority level: pri, possibly
	// raised by priority inheritance after a high-priority successor
	// registered behind this task. It is monotone per incarnation
	// (CAS-max raises only) and is what every scheduling decision reads
	// — queue lane selection, the successor-bypass gate, the taskloop
	// stealer yield.
	epri atomic.Int32

	// qstate encodes the task's scheduler-queue state: 0 when not
	// queued, level+1 when an entry for it sits in lane `level` of the
	// scheduler. A promotion re-push CASes it to the new level and
	// inserts a duplicate entry; schedTook claims execution by Swap(0),
	// so the losing (stale) entry pops as a no-op. See
	// schedAdd/schedTook and promote in queue.go.
	qstate atomic.Int32

	// pri is the task's scheduling priority level, in
	// [0, MaxPriority]. It is inherited from the parent at creation
	// (children of an interactive request stay interactive; taskloop
	// steal descriptors ride at their loop's level) and overridden by a
	// Priority clause. newTask assigns it unconditionally, so recycled
	// shells cannot leak a stale level.
	pri int8

	// inherit marks the task as a priority-inheritance donor: at
	// registration the runtime promotes its recorded unsatisfied
	// predecessors (transitively) to the task's effective priority,
	// closing the priority-inversion window. Set by the Inherit clause,
	// inherited from the parent like pri. The first task created with
	// it turns predecessor recording on for the runtime
	// (deps.System.RecordPreds), before its own registration: its
	// immediate predecessors are recorded, and a transitive walk passes
	// only through tasks registered after it.
	inherit bool

	_ [14]byte

	// Line 2 — the completion line: alive is the one word of a
	// *running* task that other cores write (every child completion
	// lowers it), so it lives apart from the attribute line the
	// spawning core keeps reading. A body-side Spawn writes the
	// parent's alive only once per batch (the bias), and the child's
	// own line 2 at creation: the node's payload and access slice
	// fill the rest of the line.

	// alive counts full completions outstanding: 1 guard for the body
	// plus one per child counted atomically (registerWith: an offer made
	// a task, a loop steal descriptor), plus
	// aliveBias while spawned holds a private count. Children in flight
	// are alive + spawned − 1, less aliveBias when spawned is non-zero
	// (inFlight). The decrement to zero completes the task.
	alive atomic.Int64

	_ [8]byte

	// Line 3 starts 40 bytes into the node: its pin and pending
	// counts, generation, predecessor cursor and domain maps. An
	// access-free task only reads them (its registration skips the
	// dependency system, and Node.Reset skips every store of a value
	// the line already holds); a task with accesses writes them at
	// registration, release and recycling. The cold access storage
	// follows, from 32 bytes into line 3: node.inline, five 80-byte
	// accesses, and node.preds, five 16-byte slots — the 480 bytes that
	// fill the shell's size class.
	node deps.Node
}

// Body is the body of a result-delivering task: Run executes the user
// function, stores its result in the future that implements Body, and
// returns its error. A future is its own task's body and embeds the
// task's Handle, so submitting one allocates only the future itself
// (repro.Future[T]).
type Body interface{ Run(*Ctx) error }

// resetBody drops the task-level references — closure, scope, handle,
// parent — at full completion. It runs unconditionally in completeOne,
// even when the node's access storage is still pinned (a chain tail
// still installed in a live domain map, or a root-shard tail the
// registrar has not swept yet), so a retained shell never keeps a body
// closure, error scope or Future alive.
//
// The line-0 fields are cleared only when set: a plain Spawn never
// writes them, and a store of the value the line already holds would
// still dirty it, so the next core to complete a task in this shell
// would have to fetch the line back. The line-1 references are always
// set, and the next creator rewrites that line anyway.
func (t *Task) resetBody() {
	if t.fn != nil {
		t.fn = nil
	}
	if t.handle != nil {
		t.handle = nil
	}
	if t.req != nil {
		t.req = nil
	}
	if t.ownsScope {
		t.ownsScope = false
	}
	if t.events != nil {
		t.events = nil
	}
	t.body = nil
	t.parent = nil
	t.sc = nil
	t.inherit = false
	// The four atomics need no reset: alive reached zero to get here,
	// qstate was zeroed by the Swap that claimed the task (and is only
	// set again by schedAdd), and newTask stores deadline and epri
	// whenever they differ from the new task's. spawned is zero
	// already: execute folds it when the body returns, before the task
	// can complete.
}

// reset fully prepares a recycled Task shell for reuse. It must only
// run once the node's access storage is quiescent (pin count zero):
// access sets of up to deps.InlineAccessCap (five) live inline in the
// shell and are reused with it, while an overflow slice (any larger
// set) is abandoned to the garbage collector, since dependency-chain
// pointers into it are not tracked beyond the pin protocol (see
// DESIGN.md).
func (t *Task) reset() {
	t.node.Reset()
	t.resetBody()
}

// result returns the task's one result slot — its Handle's error or
// its Req's — or nil when it has neither (a plain spawn). Every root
// has one.
func (t *Task) result() *error {
	switch {
	case t.handle != nil:
		return &t.handle.err
	case t.req != nil:
		return &t.req.err
	}
	return nil
}

// fail records err as the task's outcome: on the task's handle (first
// error wins) and in the scope, where the error policy decides whether
// the rest of the scope keeps running. A taskloop steal descriptor has
// no handle of its own; its chunk errors are recorded on the shared
// loop state (first wins, atomically — several descriptors can fail
// concurrently) and folded into the loop's handle by the owner after
// the descriptors complete.
func (t *Task) fail(err error) {
	if t.handle != nil && t.handle.err == nil {
		t.handle.err = err
	}
	if l := t.loop; l != nil && l.owner != t {
		l.fail.CompareAndSwap(nil, &err)
	}
	t.sc.fail(err)
}

// Ctx is the execution context passed to a task body: it identifies the
// running task and worker, and exposes the task-side runtime API.
type Ctx struct {
	rt     *Runtime
	worker int
	task   *Task
}

// Worker returns the index of the worker executing the task.
func (c *Ctx) Worker() int { return c.worker }

// Priority returns the running task's scheduling priority level (the
// declared level, not counting any priority-inheritance promotion).
func (c *Ctx) Priority() int { return int(c.task.pri) }

// Deadline returns the running task's absolute scheduling deadline in
// nanoseconds on the runtime's monotonic clock (NowNS), or 0 when the
// task carries none. Bodies can compare it against NowNS() to detect
// that they are already late and shed work.
func (c *Ctx) Deadline() int64 { return c.task.deadline.Load() }

// Runtime returns the owning runtime.
func (c *Ctx) Runtime() *Runtime { return c.rt }

// Spawn creates a child task with the given body and accesses. It may
// only be called from the task's own body (sibling registration is
// single-writer per domain, as in Nanos6). The child becomes ready when
// its dependencies are satisfied and runs on any worker. Once the task
// has 2 048 children in flight, Spawn may first run ready tasks on the
// calling thread, as Taskwait does: hold no lock across it that a task
// takes, and let no child spin on a store the body makes after its
// spawn loop.
func (c *Ctx) Spawn(body func(*Ctx), accs ...AccessSpec) {
	c.rt.spawn(c.task, body, accs, c.worker)
}

// GoBody creates a child task that runs b and resolves h, the Handle
// embedded in the future b belongs to. Like Spawn it may only be called
// from the task's own body, and may run ready tasks first. The child
// shares this task's scope: its error is recorded there (cancelling the
// scope under FailFast) in addition to being delivered through h. The
// typed façade wrapper is repro.Go.
func (c *Ctx) GoBody(h *Handle, b Body, accs ...AccessSpec) {
	t := c.rt.newTask(c.task, nil, accs, c.worker)
	t.fn = b
	t.handle = h
	c.rt.register(c.task, t, c.worker)
}

// Fail records err as the running task's failure, exactly as if a
// future's body had returned it: the error lands in the task's scope — where
// the ErrorPolicy decides whether the rest of the scope keeps running —
// and on the task's handle, if it has one. It is the error channel for
// Spawn bodies, which have no return value; the compiled-graph node
// bodies use it to route node failures into the request's scope
// without a per-node handle allocation. A nil err is a no-op.
func (c *Ctx) Fail(err error) {
	if err != nil {
		c.task.fail(err)
	}
}

// Err returns the cancellation cause of the task's scope, or nil while
// the scope is live. Long-running bodies can poll it to stop early
// after the scope was cancelled (by the caller's context or a FailFast
// error); the runtime never interrupts a body that has started.
func (c *Ctx) Err() error { return c.task.sc.abortCause() }

// Context returns the context of the task's submission scope (the ctx
// given to RunCtx or SubmitBody), for passing to context-aware callees.
// Tasks submitted without a context get a Background context.
func (c *Ctx) Context() context.Context {
	if c.task.sc != nil && c.task.sc.ctx != nil {
		return c.task.sc.ctx
	}
	return context.Background()
}

// Taskwait blocks until every child spawned by this task (and their
// descendants) has fully completed, combining any open reductions first
// (OmpSs-2 taskwait semantics). While waiting, the worker executes other
// ready tasks instead of spinning.
func (c *Ctx) Taskwait() {
	rt := c.rt
	t := c.task
	rt.tracer.Emit(c.worker, traceTaskwaitStart, 0)
	rt.deps.CloseDomain(&t.node, c.worker)
	rt.helpWhileChildren(t, c.worker)
	rt.tracer.Emit(c.worker, traceTaskwaitEnd, 0)
}

// ReductionBuffer returns this worker's privatized partial-result buffer
// for the task's reduction access on p (declared with RedSpec). The
// buffer holds the access's Len float64 elements, initialized to the
// operation's identity. Inside a taskloop chunk it resolves against the
// loop owner's reduction access, so every chunk — wherever it was
// stolen to — accumulates into the slot of the worker executing it.
func (c *Ctx) ReductionBuffer(p *float64) []float64 {
	n := &c.task.node
	if l := c.task.loop; l != nil {
		n = &l.owner.node
	}
	return n.ReductionBuffer(unsafe.Pointer(p), c.worker)
}

// AccessSpec is one clause of a task: a data access the dependency
// system orders (In, Out, InOut, RedSpec, Commutative, WeakIn,
// WeakInOut) or a scheduling attribute the core reads (Priority,
// Deadline, Inherit). Only those constructors set its fields, so an
// attribute cannot reach the dependency system: newTask and submitRoot
// hand it data clauses alone. The fields are flat so the attribute
// kind fills the padding after weak (24 bytes, as deps.AccessSpec).
type AccessSpec struct {
	addr unsafe.Pointer
	n    int // a reduction's length, a priority level or a deadline
	typ  deps.AccessType
	op   deps.ReductionOp
	weak bool
	attr attrKind
}

// attrKind names a clause's scheduling attribute; data clauses have none.
type attrKind uint8

const (
	attrNone attrKind = iota
	attrPriority
	attrDeadline
	attrInherit
)

// data is the dependency system's view of a data clause.
func (s *AccessSpec) data() deps.AccessSpec {
	return deps.AccessSpec{Addr: s.addr, Len: s.n, Type: s.typ, Op: s.op, Weak: s.weak}
}

// Access spec constructors. Addresses identify dependencies (OmpSs-2
// matches accesses by address); for array blocks pass the first element.

// In declares a read access on p.
func In[T any](p *T) AccessSpec {
	return AccessSpec{addr: unsafe.Pointer(p), typ: deps.Read}
}

// Out declares a write access on p.
func Out[T any](p *T) AccessSpec {
	return AccessSpec{addr: unsafe.Pointer(p), typ: deps.Write}
}

// InOut declares a read-write access on p.
func InOut[T any](p *T) AccessSpec {
	return AccessSpec{addr: unsafe.Pointer(p), typ: deps.ReadWrite}
}

// RedSpec declares a reduction access over n float64 elements at p.
func RedSpec(p *float64, n int, op deps.ReductionOp) AccessSpec {
	return AccessSpec{addr: unsafe.Pointer(p), n: n, typ: deps.Reduction, op: op}
}

// Commutative declares a commutative access on p.
func Commutative[T any](p *T) AccessSpec {
	return AccessSpec{addr: unsafe.Pointer(p), typ: deps.Commutative}
}

// MaxPriority is the highest scheduling priority level; 0 is the
// default. The level count is bounded (sched.PriorityLevels), so
// Priority values outside [0, MaxPriority] are clamped.
const MaxPriority = sched.PriorityLevels - 1

// Priority declares the task's scheduling priority level (the OmpSs-2
// priority clause, written beside the dependency clauses). It declares
// no data dependency: it routes the task through the scheduler's
// priority levels. Higher runs earlier among *ready* tasks — a
// priority never overtakes a data dependency. Children inherit the
// spawning task's level unless they carry their own clause. The public
// façade wrapper is repro.WithPriority.
func Priority(n int) AccessSpec {
	return AccessSpec{n: n, attr: attrPriority}
}

// Deadline declares the task's absolute scheduling deadline: absNS
// nanoseconds on the runtime's monotonic clock (NowNS). Like Priority
// it declares no data dependency, and like priorities it is inherited
// by children unless they carry their own clause. Deadlines only order
// tasks *within* the top priority level, and only when the runtime was
// built with Config.EDF: earlier deadlines pop first, deadline-less
// tasks last. A deadline never overtakes a data dependency. The public
// façade wrapper is repro.WithDeadline, which resolves a relative
// duration against NowNS.
func Deadline(absNS int64) AccessSpec {
	return AccessSpec{n: int(absNS), attr: attrDeadline}
}

// Inherit declares the task a priority-inheritance donor: at
// registration, every recorded unsatisfied predecessor of the task is
// promoted (transitively) to the task's effective priority level, so a
// low-priority task holding a dependency a high-priority task waits on
// is re-ranked instead of being starved behind mid-priority work (the
// classic priority-inversion window). Like Priority it declares no data
// dependency; children inherit the flag, and no clause clears it.
// Promotion is best-effort for tasks mid-flight through shell
// recycling, and group predecessors (reductions, commutative runs) are
// not promoted. The public façade wrapper is repro.WithInheritance.
func Inherit() AccessSpec {
	return AccessSpec{attr: attrInherit}
}

// WeakIn declares a weak read access on p: the task does not read p
// itself but may spawn children that do. Weak accesses never delay the
// task's execution; they anchor the children's dependency chains so
// successors at this nesting level wait for the children (OmpSs-2
// weakin).
func WeakIn[T any](p *T) AccessSpec {
	return AccessSpec{addr: unsafe.Pointer(p), typ: deps.Read, weak: true}
}

// WeakInOut declares a weak read-write access on p (OmpSs-2 weakinout):
// like InOut for the task's children, invisible to the task itself.
func WeakInOut[T any](p *T) AccessSpec {
	return AccessSpec{addr: unsafe.Pointer(p), typ: deps.ReadWrite, weak: true}
}
