package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/counter"
	"repro/internal/deps"
	"repro/internal/event"
	"repro/internal/locks"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Trace kind aliases keep task.go free of a second import block.
const (
	traceTaskwaitStart = trace.KTaskwaitStart
	traceTaskwaitEnd   = trace.KTaskwaitEnd
)

// epoch anchors the runtime's monotonic deadline clock: absolute
// deadlines are nanoseconds since this process-wide instant, so they
// fit an int64 with centuries of headroom and compare with plain
// integer order inside the EDF heap.
var epoch = time.Now()

// NowNS returns the current time on the runtime's monotonic deadline
// clock: nanoseconds since the package epoch. Deadline clauses carry
// absolute values on this clock; WithDeadline-style helpers resolve
// relative durations by adding them to NowNS().
func NowNS() int64 { return int64(time.Since(epoch)) }

// bypassSlot is one thread index's immediate-successor hand-off: while
// the slot is armed — around a deps.Unregister, or the registration of
// an inline-served root — the first eligible task the ready callback
// sees is parked here instead of round-tripping through the scheduler,
// and disarm hands it to the owning thread, which runs it next. No body
// runs inside an armed region, so the slot is empty whenever a body
// starts or returns. The slot is strictly thread-local — armed and next
// are only ever touched by the goroutine that owns the index — and
// padded so neighbouring slots never false-share.
type bypassSlot struct {
	armed bool
	next  *Task
	_     [48]byte
}

// disarm closes the armed region and returns the task the ready
// callback parked in it, if any, leaving the slot empty.
func (bs *bypassSlot) disarm() *Task {
	t := bs.next
	bs.armed, bs.next = false, nil
	return t
}

// ctxSlot is one worker's reusable execution context, padded to its
// own cache line (Ctx is three words; see the size pin in core_test).
// Reusing it keeps the per-execute Ctx from escaping to the heap;
// bodies only observe the Ctx while they run (an API guarantee), and
// nested execution (taskwait helping) saves and restores the task
// field around the inner body.
type ctxSlot struct {
	ctx Ctx
	_   [40]byte
}

// Runtime is a Nanos6-style task-based runtime instance: a pool of
// worker goroutines (one per simulated core, optionally OS-thread
// pinned), a dependency system, a scheduler and a task allocator, wired
// according to Config.
type Runtime struct {
	cfg    Config
	deps   deps.System
	tracer *trace.Tracer

	// sched is the scheduler (the full per-level policy stack, EDF
	// included) and alloc the task-shell allocator, both sized for the
	// full slot space of topology.go.
	sched sched.Scheduler[*Task]
	alloc alloc.Allocator[Task]

	// added and taken are the two halves of the pending count
	// (scheduler-queued tasks), sharded per slot like live and both
	// monotone: a producer bumps added on its own slot's line
	// (schedAdd/promote), a taker bumps taken on its own (schedTook), so
	// the per-task hot path writes no line another core writes. Their
	// difference (pending) is the scheduler's half of the Dekker
	// no-lost-wakeup argument, and is only summed on slow paths.
	added *counter.Sharded
	taken *counter.Sharded

	// priPending counts scheduler-queued tasks per elevated priority
	// level (level 0 is never counted — there is no lower class to
	// protect from it). The successor-bypass gate reads the levels above
	// a candidate's own before parking it, so a low-priority immediate
	// successor cannot jump a queued high-priority task. Counting covers
	// exactly the tasks routed through sched.Add/Get. Each level sits on
	// its own cache line; runs that never set a priority only ever
	// *read* these (always-zero) lines on the bypass path, which stays
	// cached and contention-free.
	priPending [sched.PriorityLevels]paddedCount

	// global is the completion parent of every root task submitted
	// through Run/Submit: the sentinel completeOne's cascade stops at
	// and the source of a root's inherited (zero) attributes. It counts
	// nothing — its alive stays at the 1 set in build, and live roots
	// are counted by the sharded live counter — and never completes.
	// Root dependency chains do not live under it — they live in the
	// sharded rootDom, so unrelated submissions register in parallel.
	global Task

	// rootDom is the sharded root dependency domain. A submission
	// leases the shards its access addresses hash to (ascending order,
	// so cross-shard submissions cannot deadlock); the lease's lowest
	// shard doubles as the submitter slot, the worker index
	// Workers+shard whose thread-local structures (dependency mailbox,
	// allocator free list, scheduler insertion, trace buffer) the
	// lease holder uses exclusively.
	rootDom *deps.RootDomain

	// live counts created-but-not-fully-completed tasks, sharded per
	// worker so the two hottest lifecycle events (create, complete)
	// never ping-pong a shared cache line. The sum is exact at
	// quiescence, which is the only time anyone reads it (LiveTasks
	// diagnostics, the worker stop check).
	live     *counter.Sharded
	stopping atomic.Bool
	wg       sync.WaitGroup

	// Elastic worker pool state. parker holds the per-worker parking
	// channels and state words; the pending count is the pre-park
	// recheck's primary signal; parkRecheck is the recheck closure,
	// built once at New so the park path never allocates; elastic gates
	// the whole mechanism — false for the blocking scheduler (its
	// workers sleep in the scheduler's own condvar) and for IdleSpin<0
	// (the pure-spin baseline).
	parker      *sched.Parker
	parkRecheck func() bool
	elastic     bool

	// bypass and wctx are per-worker hot-path state (successor bypass
	// slots and reusable execution contexts), indexed by worker; bypass
	// has extra slots for the submitter and event-completer indices so
	// the ready callback can index it unconditionally (those are never
	// armed; inline-serving slots are).
	bypass []bypassSlot
	wctx   []ctxSlot

	// External-event machinery (see event.go): evSlots pools the
	// exclusive thread indices non-worker goroutines borrow to run the
	// deferred release path, wheel is the timer queue behind
	// Ctx.After/AfterFunc that idle threads poll, and gate seals root
	// submission for Drain (entered under the registration lease's shard
	// lock, so it adds no cross-submitter cache traffic). eventsHeld
	// counts tasks parked between body return and final event decrement;
	// together with the live counter it defines Drain's quiescence.
	evSlots    *event.Slots
	wheel      *event.Wheel
	gate       *event.Gate
	eventsHeld paddedCount

	// serveSlots pools the exclusive thread indices inline-serving
	// submitters borrow (see SubmitReq). Acquisition is TryAcquire-only
	// — a busy pool falls back to the dispatch path — so holding a slot
	// while executing arbitrary task bodies can never deadlock another
	// goroutine on it. It is a second pool, never merged with evSlots:
	// see topology.go.
	serveSlots *event.Slots

	// noise state for the Figure 11 experiment. serves is sharded for
	// the same reason as live; it is only touched while the experiment
	// is armed (noise configured and not yet fired).
	serves    *counter.Sharded
	noiseDone atomic.Bool
}

// paddedCount is one cache-line-isolated atomic counter (the per-level
// pending counts above; too few and too structured for counter.Sharded).
type paddedCount struct {
	v atomic.Int64
	_ [56]byte
}

// New builds and starts a runtime. The caller must Close it.
func New(cfg Config) *Runtime {
	rt := build(cfg)
	rt.start()
	return rt
}

// build constructs a fully wired runtime without starting its worker
// pool; start launches it. The split exists for the deterministic
// tests, which enqueue into a quiescent runtime and play a worker by
// hand.
func build(cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	rt := &Runtime{cfg: cfg}
	// The thread-index space every per-"worker" structure is sized for
	// is defined ONCE, in topology.go, the root-shard count included.
	// Constructors below that take a worker count and add one slot
	// themselves receive slots-1.
	rt.rootDom = deps.NewRootDomain(max(4*cfg.Workers, 16))
	shards := rt.rootDom.Shards()
	slots := rt.Slots()
	rt.evSlots = event.NewSlots(cfg.Workers+shards, eventSlots)
	rt.wheel = event.NewWheel(0, 0)
	rt.gate = event.NewGate(shards)
	rt.live = counter.NewSharded(slots)
	rt.added = counter.NewSharded(slots)
	rt.taken = counter.NewSharded(slots)
	rt.serves = counter.NewSharded(slots)
	rt.bypass = make([]bypassSlot, slots)
	rt.serveSlots = event.NewSlots(cfg.Workers+shards+eventSlots, serveSlots)
	// Every slot gets a reusable execution context, not just the
	// workers: inline-serving submitters execute task bodies on their
	// own index.
	rt.wctx = make([]ctxSlot, slots)
	// Elastic parking is off for the blocking scheduler (its workers
	// already sleep inside Get) and for the pure-spin baseline. The
	// recheck closure is built once here: Park calls it after the worker
	// is visible as parked, and it must observe every signal a producer
	// publishes before waking — the scheduler pending count and the stop
	// flag (Close never strands a worker that parked between the flag
	// store and WakeAll).
	rt.elastic = cfg.Scheduler != SchedBlocking && cfg.IdleSpin >= 0
	rt.parker = sched.NewParker(cfg.Workers, 1, nil)
	rt.parkRecheck = func() bool { return rt.stopping.Load() || rt.pending() > 0 }
	for i := range rt.wctx {
		rt.wctx[i].ctx = Ctx{rt: rt, worker: i}
	}
	if cfg.TraceCapacity > 0 {
		rt.tracer = trace.New(slots-1, cfg.TraceCapacity)
	}

	// ready routes a now-runnable task to the scheduler — unless the
	// calling thread has armed its bypass slot (it is releasing
	// dependencies, or registering an inline-served root) and the slot
	// is free, in which case the first eligible task is handed straight
	// back to that thread (Nanos6's immediate-successor optimization).
	// ReadyFn fires exactly once per task, so parking
	// the task in the slot instead of the scheduler preserves
	// exactly-once scheduling; commutative tasks (which may have to be
	// re-enqueued after losing the token race) and tasks of cancelled
	// scopes always take the scheduler path. The bypass also yields to
	// the priority dimension: if a task of a *higher* level than the
	// candidate successor is queued, the successor goes through the
	// scheduler — where the priority policy orders the two — instead of
	// jumping the queue on this worker.
	ready := func(n *deps.Node, worker int) {
		t := n.Payload.(*Task)
		if bs := &rt.bypass[worker]; bs.armed && bs.next == nil &&
			!n.HasCommutative() && rt.mayHandOff(t) {
			bs.next = t
			return
		}
		rt.schedAdd(t, worker)
	}
	switch cfg.Deps {
	case DepsWaitFree:
		wf := deps.NewWaitFree(ready, slots-1)
		wf.OnQuiescent(rt.recycleQuiescent)
		rt.deps = wf
	case DepsLocked:
		rt.deps = deps.NewLocked(ready, slots-1)
	default:
		panic(fmt.Sprintf("core: unknown deps kind %d", cfg.Deps))
	}

	// The configured policy becomes one *level* of the bounded-levels
	// priority policy (paper §3.2: new scheduling policies are policy
	// wrappers, not scheduler rework). Priority-free runs stay on the
	// level-0 fast path, so the wrapper costs one predictable branch.
	// Lane selection reads the *effective* priority so a
	// priority-inheritance promotion re-ranks where the task queues.
	priOf := func(t *Task) int { return int(t.epri.Load()) }
	// In deadline-aware mode (Config.EDF) the top level orders by
	// absolute deadline instead of the configured policy.
	var dlOf func(t *Task) int64
	if cfg.EDF {
		dlOf = func(t *Task) int64 { return t.deadline.Load() }
	}
	mkInner := func() sched.Policy[*Task] {
		switch cfg.Policy {
		case PolicyLIFO:
			return sched.NewLIFO[*Task]()
		case PolicyLocality:
			return sched.NewLocality[*Task](cfg.Workers, cfg.NUMANodes)
		default:
			return sched.NewFIFO[*Task]()
		}
	}
	mkPolicy := func() sched.Policy[*Task] {
		return sched.NewPriorityLevels(func(level int) sched.Policy[*Task] {
			if dlOf != nil && level == sched.PriorityLevels-1 {
				return sched.NewEDF(dlOf)
			}
			return mkInner()
		}, priOf)
	}

	hooks := sched.Hooks{
		OnServe: func(owner, served int) {
			rt.tracer.Emit(owner, trace.KServe, uint64(served))
			rt.maybeInjectNoise(owner)
		},
		OnDrain: func(owner, n int) {
			rt.tracer.Emit(owner, trace.KDrain, uint64(n))
			// Drains count as service activity for the noise trigger:
			// on hosts with few physical cores delegation serves are
			// rare (the lock is never observed busy), but the owner is
			// just as vulnerable to an interrupt while draining.
			rt.maybeInjectNoise(owner)
		},
		// Batched service must not let a buffered level-0 task overtake
		// elevated work that arrived after the buffer was filled: any
		// queued task above level 0 closes every run buffer — the level
		// test of mayHandOff, so the run buffer and the successor bypass
		// read the same counts.
		Elevated: func() bool { return rt.higherPriPending(0) },
	}
	// The scheduler and allocator are sized for the complete slot space:
	// any thread index may Add, and the helping loops TryGet from
	// non-worker indices.
	switch cfg.Scheduler {
	case SchedSyncDTLock:
		rt.sched = sched.NewSync(mkPolicy(), cfg.Workers, slots-cfg.Workers, cfg.NUMANodes, cfg.SPSCCap, hooks)
	case SchedCentralPTLock:
		rt.sched = sched.NewCentral(mkPolicy(), slots-1)
	case SchedBlocking:
		rt.sched = sched.NewBlocking(mkPolicy())
	case SchedWorkStealing:
		rt.sched = sched.NewWorkStealing[*Task](slots - 1)
	default:
		panic(fmt.Sprintf("core: unknown scheduler kind %d", cfg.Scheduler))
	}
	switch cfg.Alloc {
	case AllocPooled:
		rt.alloc = alloc.NewPooled[Task](slots-1, 64)
	case AllocSerial:
		rt.alloc = alloc.NewSerial[Task]()
	default:
		panic(fmt.Sprintf("core: unknown alloc kind %d", cfg.Alloc))
	}

	rt.global.alive.Store(1) // never completes
	return rt
}

// start launches the worker pool of a built runtime.
func (rt *Runtime) start() {
	rt.wg.Add(rt.cfg.Workers)
	for id := 0; id < rt.cfg.Workers; id++ {
		go rt.workerLoop(id)
	}
}

// recycleQuiescent is the wait-free system's quiescence callback: it
// recycles a task shell whose access storage quiesced only after the
// task had fully completed (e.g. early-forwarded readers that finish
// before their predecessor releases to them, or chain tails replaced
// later).
func (rt *Runtime) recycleQuiescent(n *deps.Node, worker int) {
	t := n.Payload.(*Task)
	t.reset()
	rt.alloc.Put(worker, t)
}

// Config returns the runtime's effective configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// Slots returns the size of the runtime's thread-index space: workers,
// root-submitter shards, event-completer slots and inline-serving
// slots. Ctx.Worker reports an index in [0, Slots()) — task bodies
// execute on non-worker indices when an inline-serving submitter runs
// or helps them — so per-thread structures indexed by Ctx.Worker (for
// example histogram recorder shards) must be sized by Slots, not by
// Config().Workers.
func (rt *Runtime) Slots() int {
	return rt.cfg.Workers + rt.rootDom.Shards() + eventSlots + serveSlots
}

// Tracer returns the instrumentation backend, or nil when tracing is
// disabled.
func (rt *Runtime) Tracer() *trace.Tracer { return rt.tracer }

// SchedulerName and DepsName identify the wired implementations.
func (rt *Runtime) SchedulerName() string { return rt.sched.Name() }

// DepsName returns the dependency system's name.
func (rt *Runtime) DepsName() string { return rt.deps.Name() }

// newTask allocates and initializes a task without registering it. The
// task inherits the parent's scope; root submitters override it.
// Access sets up to deps.InlineAccessCap (five) live in the shell's
// inline array — no allocation on the spawn path; larger sets overflow
// to a heap slice. The shell pin taken here is the completion guard of
// the storage-quiescence protocol: it is dropped in completeOne — never
// earlier, deps.Unregister relies on it to cover the unpinned messages
// it sends the task's own accesses — and the shell is recycled by
// whoever drops the node's last pin (usually completeOne itself).
func (rt *Runtime) newTask(parent *Task, body func(*Ctx), accs []deps.AccessSpec, worker int) *Task {
	t := rt.alloc.Get(worker)
	t.body = body
	t.parent = parent
	t.sc = parent.sc
	t.pri = parent.pri
	t.inherit = parent.inherit
	dl := parent.deadline.Load()
	t.alive.Store(1)
	if t.node.Payload == nil {
		// First use of a fresh shell; Node.Reset keeps the payload, so
		// a recycled shell's is already this task.
		t.node.Payload = t
	}
	t.node.Pin()
	// Pseudo accesses (priority, deadline, inheritance clauses) are
	// stripped here: they set the task's scheduling attributes (last
	// clause of a kind wins, overriding the inherited value) and never
	// reach the dependency system.
	nacc := len(accs)
	for i := range accs {
		switch accs[i].Type {
		case deps.PriorityClause:
			t.pri = int8(sched.ClampPriority(accs[i].Len))
			nacc--
		case deps.DeadlineClause:
			dl = int64(accs[i].Len)
			nacc--
		case deps.InheritClause:
			t.inherit = true
			nacc--
		}
	}
	t.deadline.Store(dl)
	t.epri.Store(int32(t.pri))
	if nacc > 0 {
		dst := t.node.InitAccesses(nacc)
		if nacc == len(accs) {
			for i := range accs {
				dst[i].Init(&t.node, accs[i])
			}
		} else {
			j := 0
			for i := range accs {
				switch accs[i].Type {
				case deps.PriorityClause, deps.DeadlineClause, deps.InheritClause:
				default:
					dst[j].Init(&t.node, accs[i])
					j++
				}
			}
		}
	}
	return t
}

// register links the task into the dependency graph; the task becomes
// ready (and is scheduled) as soon as its accesses allow.
func (rt *Runtime) register(parent *Task, t *Task, worker int) {
	rt.registerWith(parent, nil, t, worker)
}

// registerWith is the shared registration accounting: parent liveness,
// the sharded live counter, trace emission and the dependency-system
// call — against parent's own domain for nested tasks, or the sharded
// root domain when d is non-nil (mirroring deps' register shape).
func (rt *Runtime) registerWith(parent *Task, d *deps.RootDomain, t *Task, worker int) {
	// Roots have no parent to keep alive: completeOne stops at
	// &rt.global, so counting them there would be a dead RMW on a line
	// every submitter shares.
	if parent != &rt.global {
		parent.alive.Add(1)
	}
	rt.live.Add(worker, 1)
	// The tracer is nil-receiver-safe (a nil *trace.Tracer no-ops every
	// method), so emission sites call it unconditionally.
	rt.tracer.Emit(worker, trace.KTaskCreate, 0)
	// The inheritance clause and donor level are captured before the
	// dependency-system call: the moment registration publishes the
	// task it may be executed and fully completed by a worker, whose
	// resetBody concurrently wipes the shell's plain fields.
	inherit, lvl := t.inherit, int(t.epri.Load())
	t0 := rt.tracer.Now()
	if d != nil {
		rt.deps.RegisterRoot(d, &t.node, worker)
	} else {
		rt.deps.Register(&parent.node, &t.node, worker)
	}
	rt.tracer.EmitTS(worker, trace.KDepRegister, uint64(rt.tracer.Now()-t0), t0)
	// Priority inheritance: registration just recorded this task's
	// immediate chain predecessors, so an elevated inheritance-tagged
	// task now promotes the unsatisfied ones (transitively) to its own
	// effective level, closing the inversion window before any
	// mid-priority work can overtake the holder. (If the task already
	// completed, the walk sees generation-revalidated slots and
	// alive-guarded payloads; the worst case is a bounded anomaly, as
	// documented on promotePreds.)
	if inherit && lvl > 0 {
		rt.promotePreds(&t.node, lvl, worker)
	}
}

// spawn implements Ctx.Spawn.
func (rt *Runtime) spawn(parent *Task, body func(*Ctx), accs []deps.AccessSpec, worker int) {
	t := rt.newTask(parent, body, accs, worker)
	rt.register(parent, t, worker)
}

// ContinueNode reports whether the body running on c may go on with
// graph node `node` as a plain call inside its own task instead of
// spawning it — the immediate-successor hand-off taken to its end: no
// shell, registration or completion at all. The caller vouches for what
// is fixed per graph (the node is ready, access-free, and of the running
// task's level and deadline, so it needs no scheduling decision);
// ContinueNode checks what is not, mayHandOff's gates against the
// running task, and records a pass as one KNodeContinue event, the only
// trace a continued node leaves. On false the caller spawns the node:
// the policy orders it, or the scheduler drains it.
func ContinueNode(c *Ctx, node int) bool {
	rt := c.rt
	if !rt.mayHandOff(c.task) {
		return false
	}
	rt.tracer.Emit(c.worker, trace.KNodeContinue, uint64(node))
	return true
}

// workerLoop is the per-core scheduling loop: ask the scheduler for
// work, run it, and while idle fire due timers and climb the spin→park
// ladder — a bounded spin-yield phase (Config.IdleSpin empty polls)
// followed by parking on the worker's wake channel until a producer's
// enqueue claims it. A worker whose timer queue has a deadline within
// event.Horizon stays up instead, as the one timer owner. No worker
// parks once the runtime is stopping (the stop condition below must
// stay polled).
// The loop exits once the runtime is stopping and no live tasks remain;
// each exiting worker wakes all parked peers so the exit cascades.
func (rt *Runtime) workerLoop(id int) {
	defer rt.wg.Done()
	if rt.cfg.PinWorkers {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	spinning := false
	for i := 0; ; i++ {
		t0 := rt.tracer.Now()
		if t := rt.schedTook(rt.sched.Get(id), id); t != nil {
			if spinning {
				rt.parker.MarkRunning(id)
				spinning = false
			}
			rt.tracer.EmitTS(id, trace.KSchedEnter, 0, t0)
			rt.tracer.Emit(id, trace.KSchedLeave, 0)
			rt.runChain(t, id)
			i = 0
			continue
		}
		if rt.wheel.Poll(id) {
			// A due timer fired on this worker's index: its event's
			// release ran here, and the successors it readied with it.
			i = 0
			continue
		}
		if rt.stopping.Load() && rt.live.Sum() == 0 {
			// Parked peers cannot poll this condition; each exiting
			// worker releases them all so the shutdown cascades.
			rt.parker.WakeAll()
			return
		}
		if rt.elastic && !spinning {
			rt.parker.MarkSpinning(id)
			spinning = true
		}
		if rt.elastic && i >= rt.cfg.IdleSpin && !rt.stopping.Load() && !rt.wheel.Hold(id) {
			// Spin budget exhausted and no timer near enough to keep this
			// worker up as the owner: park until a producer's enqueue
			// claims this worker. Park publishes the parked state before
			// running the recheck, so an enqueue that lands between the
			// last empty poll above and the sleep is never lost — either
			// the recheck sees its pending count, or the producer's
			// WakeOne sees this worker parked.
			rt.parker.Park(id, rt.parkRecheck)
			spinning = false
			i = -1 // restart the ladder: poll eagerly after a wake
			continue
		}
		spinOrYield(i)
	}
}

// helpUntil is the runtime's one blocking-help loop: execute ready
// tasks on worker id until done() reports true, firing due timers and
// spin-yielding only when no work is available. Every in-task wait
// routes through it — Taskwait and the loop owner's final-chunk barrier
// (helpWhileChildren) and the handle wait of Ctx.Await — so "waiting
// means helping" is implemented (and tuned) in exactly one place. done
// must be cheap; it is polled between tasks. The func value is only
// called, never stored, so closure arguments stay on the caller's stack.
func (rt *Runtime) helpUntil(id int, done func() bool) {
	for i := 0; !done(); i++ {
		if t := rt.schedTook(rt.sched.TryGet(id), id); t != nil {
			rt.runChain(t, id)
			i = 0
			continue
		}
		if rt.wheel.Poll(id) {
			i = 0
			continue
		}
		spinOrYield(i)
	}
}

// helpWhileChildren executes ready tasks on worker id until every child
// of t (and their descendants) has fully completed. It is the waiting
// half of Taskwait and of a loop owner's final-chunk barrier.
func (rt *Runtime) helpWhileChildren(t *Task, id int) {
	rt.helpUntil(id, func() bool { return t.alive.Load() <= 1 })
}

// runChain executes t on thread id and then every successor its
// release hands back through the bypass slot, without returning to the
// scheduler in between. Every loop that runs tasks — the worker loop,
// the helping loop, inline serving, a worker-side deferred release —
// runs them through it.
func (rt *Runtime) runChain(t *Task, id int) {
	for t != nil {
		t = rt.execute(t, id)
	}
}

// execute runs one ready task to completion on worker id: commutative
// token acquisition, body, dependency release, completion cascade. It
// returns the first eligible successor the dependency release readied
// (the bypass slot's hand-off): the caller's loop executes it next
// without a scheduler round-trip.
//
// A body that registered external events (Ctx.Events) may return with
// completions still pending; the task then *parks* — everything after
// the body (commutative release, unregister, completeOne) is deferred
// to the final event decrement (releaseDeferred) — and execute returns
// nil at once so the worker is immediately available for other work.
//
// If the task's scope has been cancelled (caller context done, or an
// earlier error under FailFast), the body is skipped entirely — but the
// dependency release and the completion cascade still run, so successor
// tasks are released (and drained in turn), live-task accounting
// reaches zero, and the task shell is recycled. This is what lets a
// cancelled submission unwind an arbitrarily deep ready graph without
// executing it.
func (rt *Runtime) execute(t *Task, id int) *Task {
	cause := t.sc.abortCause()
	if cause == nil && t.node.HasCommutative() && !t.node.TryAcquireCommutative() {
		// Lost the token race: re-enqueue and let the worker move on.
		rt.schedAdd(t, id)
		runtime.Gosched()
		return nil
	}
	if cause != nil {
		// Drained: record the skip in the task's result slot, if it has
		// one. Skips are not scope errors — only their cause is.
		rt.tracer.Emit(id, trace.KTaskCancel, 0)
		if p := t.result(); p != nil && *p == nil {
			*p = &skipError{cause: cause}
		}
	} else {
		rt.tracer.Emit(id, trace.KTaskStart, 0)
		rt.runBody(t, id)
		rt.tracer.Emit(id, trace.KTaskEnd, 0)
		if ec := t.events; ec != nil {
			// The body obtained an event counter: drop its guard. If
			// external completions are still pending the task parks —
			// dependency release and completion are deferred to the
			// final decrement (releaseDeferred) — and this worker goes
			// straight back for more work. Pin-protocol note: the
			// creation pin and the alive guard both survive the park
			// (completeOne has not run), so the shell cannot be
			// recycled under the pending events. eventsHeld is raised
			// before the guard drop, so the final decrementer always
			// finds it counted, and lowered (releaseDeferred) before
			// completeOne lowers live and resolves the handle: Drain's
			// live == 0 && eventsHeld == 0 can never hold with a
			// release in flight, and PendingEvents never lags a
			// resolved handle. After a losing guard drop, t belongs to
			// the final decrementer and must not be touched here.
			rt.eventsHeld.v.Add(1)
			if ec.n.Add(-1) > 0 {
				rt.tracer.Emit(id, trace.KEventHold, 0)
				return nil
			}
			ec.n.Store(eventsDrained) // spent: late Add/Done must panic
			rt.eventsHeld.v.Add(-1)
		}
		t.node.ReleaseCommutative()
	}
	return rt.release(t, id, true)
}

// release is the one dependency release, shared by execute's tail and
// releaseDeferred: unregister t's accesses — with id's bypass slot armed
// when arm is set, so the ready callback parks the first eligible
// successor there — then run the completion cascade, and return the
// parked successor for the caller's runChain. The slot is disarmed
// before completeOne so a recycled shell can never alias the parked
// task. Drained tasks pass through here too: a path that skips a body
// still releases.
func (rt *Runtime) release(t *Task, id int, arm bool) *Task {
	bs := &rt.bypass[id]
	bs.armed = arm
	t0 := rt.tracer.Now()
	rt.deps.Unregister(&t.node, id)
	rt.tracer.EmitTS(id, trace.KDepUnregister, uint64(rt.tracer.Now()-t0), t0)
	next := bs.disarm()
	rt.completeOne(t, id)
	return next
}

// runBody invokes the task body with panic recovery: a panicking body
// fails the task with a *PanicError instead of killing the worker, and
// execution (commutative release, dependency release, completion)
// continues as if the body had returned that error.
//
// The Ctx is the worker's reusable instance, so it never escapes to the
// heap; bodies only observe it while they run (an API guarantee). The
// task field is saved and restored around the body because taskwait
// helping nests execute — the inner body borrows the slot and the
// outer body must see its own task again afterwards.
func (rt *Runtime) runBody(t *Task, id int) {
	c := &rt.wctx[id].ctx
	prev := c.task
	c.task = t
	defer func() {
		c.task = prev
		if r := recover(); r != nil {
			t.fail(&PanicError{Value: r, Stack: debug.Stack()})
		}
	}()
	switch {
	case t.loop != nil:
		rt.runLoopBody(c, t)
	case t.fn != nil:
		v, err := t.fn(c)
		if t.handle != nil {
			t.handle.val = v
		}
		if err != nil {
			t.fail(err)
		}
	case t.body != nil:
		t.body(c)
	}
}

// completeOne releases the body guard of t and cascades full completions
// up the ancestor chain. Handles are closed here — full completion is
// when a Future's result becomes observable — and scope-owning roots
// fold their scope's aggregate error into their one result slot (a
// Handle's or a Req's) and release the scope.
//
// Shell recycling is gated by the node's pin count: dropping the
// completion guard recycles immediately when the dependency system
// holds no further references to the task's access storage (the fast
// path — exclusive-access chains release during their own Unregister).
// Otherwise the shell stays out of the pool until the wait-free
// system's quiescence callback fires (early-forwarded readers, chain
// tails still registered in a live domain), which is what makes reusing
// the inline access array safe; see DESIGN.md.
func (rt *Runtime) completeOne(t *Task, id int) {
	for t != nil && t != &rt.global && t.alive.Add(-1) == 0 {
		parent := t.parent
		rt.live.Add(id, -1)
		req := t.req
		if t.ownsScope {
			if req != nil {
				req.claim() // the aggregate is final once a deadline cancel is out
			}
			if agg := t.sc.err(); agg != nil {
				p := t.result()
				if sk, ok := (*p).(*skipError); ok {
					// The root itself was drained: keep the ErrTaskSkipped
					// marker and carry the aggregate (which wraps the
					// cancellation cause) as its cause.
					sk.cause = agg
				} else {
					*p = agg
				}
			}
			// The root completes last in its scope: every descendant
			// already dropped its scope reference on completion, so the
			// scope can be recycled for a future submission.
			t.sc.release()
		}
		if t.handle != nil {
			close(t.handle.done)
		}
		if l := t.loop; l != nil {
			t.loop = nil
			if l.owner == t {
				// The owner completes strictly after every steal
				// descriptor (they are its children), so nothing can
				// reference the loop state anymore.
				putLoopState(l)
			}
		}
		t.resetBody()
		if t.node.Unpin() == 0 {
			t.node.Reset()
			rt.alloc.Put(id, t)
		}
		if req != nil {
			// Signal last, strictly after the scope release and shell
			// recycle above: when Wait returns, the waiter may reuse the
			// Req (and its frame) for the next request immediately.
			req.done <- struct{}{}
		}
		t = parent
	}
}

// maybeInjectNoise stalls the serving worker once, after the configured
// number of serves, emulating a kernel interrupt preempting the DTLock
// owner (Figure 11). The stall interval is logged as a kernel event.
//
// The guards come before any counting so the common cases pay nothing:
// runs without noise configured return on the config check, and once
// the one-shot has fired every subsequent serve returns on the
// noiseDone load instead of bumping a counter forever. While armed,
// the serve count is sharded per worker; the threshold is a >= test on
// the sum (concurrent serves may overshoot the exact value by a few)
// with the CAS keeping the stall exactly-once. Serve/drain events only
// ever fire on the current DTLock owner, so Add and Sum here are
// owner-serialized — the Sum walk is not a concurrent hot-line scan.
func (rt *Runtime) maybeInjectNoise(owner int) {
	n := rt.cfg.Noise
	if n.AfterServes <= 0 || n.Duration <= 0 || rt.noiseDone.Load() {
		return
	}
	rt.serves.Add(owner, 1)
	if rt.serves.Sum() < int64(n.AfterServes) || !rt.noiseDone.CompareAndSwap(false, true) {
		return
	}
	start := rt.tracer.Now()
	deadline := time.Now().Add(n.Duration)
	for time.Now().Before(deadline) {
		// Busy stall: the owner holds the DTLock throughout, exactly the
		// situation the paper's Figure 11 trace captures.
	}
	rt.tracer.EmitTS(owner, trace.KInterrupt, uint64(n.Duration.Nanoseconds()), start)
}

// Close shuts the runtime down after all submitted work has finished.
// It must not be called concurrently with Run. (Use Drain first to
// quiesce a runtime that still has submissions or pending events in
// flight.) The timer queue stops after the workers: a worker exits
// only at live==0, which a pending timer's task prevents, so stopping
// the queue earlier could strand the pool.
func (rt *Runtime) Close() {
	rt.stopping.Store(true)
	rt.sched.Stop()
	// Release parked workers after the stop flag is visible: a worker
	// that parked concurrently either saw the flag in its pre-sleep
	// recheck (it never parks while stopping) or is seen parked here.
	rt.parker.WakeAll()
	rt.wg.Wait()
	rt.wheel.Stop()
}

// LiveTasks returns the number of tasks created but not yet fully
// completed (diagnostics and tests). The underlying counter is sharded:
// the value is exact once submitters and workers are quiescent, which
// is when the tests that assert on it read it.
func (rt *Runtime) LiveTasks() int64 { return rt.live.Sum() }

// Stats is a snapshot of the worker pool (Runtime.Stats): the current
// worker states and the cumulative park/wake counters. Instantaneous
// fields (Parked, Spinning, Pending) are racy snapshots, exact only at
// quiescence; the cumulative counters are monotone.
type Stats struct {
	// Workers is the pool size (Config.Workers).
	Workers int
	// Parked is the number of workers currently asleep on their wake
	// channel.
	Parked int
	// Spinning is the number of workers currently in the bounded idle
	// spin phase of the park ladder.
	Spinning int
	// Parks counts blocking parks over the runtime's lifetime
	// (cancelled parks — recheck found work — are not counted).
	Parks uint64
	// Wakes counts wake tokens delivered to parked workers.
	Wakes uint64
	// Pending is the number of tasks currently queued in the scheduler
	// (added and not yet taken).
	Pending int64
}

// Stats returns a pool snapshot. With parking disabled (blocking
// scheduler, or IdleSpin < 0) the park/wake fields stay zero and
// Pending still tracks the scheduler queues.
func (rt *Runtime) Stats() Stats {
	return Stats{
		Workers:  rt.cfg.Workers,
		Parked:   rt.parker.Parked(),
		Spinning: rt.parker.Spinning(),
		Parks:    rt.parker.Parks(),
		Wakes:    rt.parker.Wakes(),
		Pending:  rt.pending(),
	}
}

// spinOrYield performs bounded busy-waiting before yielding to the Go
// scheduler, keeping oversubscribed worker counts live on small hosts.
func spinOrYield(i int) { locks.Spin(i) }
