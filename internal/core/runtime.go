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
// starts or returns. watch is the same index's record, as a thief, of
// the serving slots' hand-off cells (stealCell). The slot is strictly
// thread-local — armed, next and watch are only ever touched by the
// goroutine that owns the index — and padded so neighbouring slots
// never false-share.
type bypassSlot struct {
	armed bool
	next  *Task
	watch [serveSlots]cellWatch
	_     [16]byte
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
// field around the inner body. helping counts the helping loops
// (helpUntil, helpSpawn) running on the thread; only a body enters one.
type ctxSlot struct {
	ctx     Ctx
	helping int32
	_       [36]byte
}

// recoverBody is deferred around body code, given the slot's helping
// count at the body's start: it restores the slot's task to prev and
// fails t with a panic the body raised. A panic raised under a helping
// loop the body entered (the count moved) is a runtime fault, left to
// crash the process.
func (s *ctxSlot) recoverBody(t, prev *Task, helping int32) {
	s.ctx.task = prev
	if s.helping == helping {
		if r := recover(); r != nil {
			t.fail(&PanicError{Value: r, Stack: debug.Stack()})
		}
	}
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
	// (scheduler-queued tasks and offers in hand-off cells), sharded per
	// slot and both monotone: a producer bumps added on its own
	// slot's line (schedAdd/promote/OfferNode), a taker bumps taken on its
	// own (schedTook, callOffer, offerTask), so
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
	// exactly the tasks routed through schedAdd/schedTook (offers are
	// level 0 and never counted here). Each level sits on
	// its own cache line; runs that never set a priority only ever
	// *read* these (always-zero) lines on the bypass path, which stays
	// cached and contention-free.
	priPending [sched.PriorityLevels]paddedCount

	// global is the completion parent of every root task submitted
	// through Run/Submit: the sentinel completeOne's cascade stops at
	// and the source of a root's inherited (zero) attributes. It counts
	// nothing — its alive stays at the 1 set in build, and roots not yet
	// completed are counted by the sharded live counter — and never
	// completes.
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

	// live counts admitted root submissions not yet fully completed,
	// sharded per slot so concurrent submitters never ping-pong a shared
	// cache line. A root completes only after every task and offer under
	// it (completeOne's alive cascade), so live == 0 is quiescence. The
	// sum is exact at quiescence, which is the only time anyone reads it
	// (LiveTasks diagnostics, the worker stop check, Drain). It is also
	// the drain gate: admit raises it before reading sealed, and Drain
	// stores sealed before summing it (see admit).
	live     *counter.Sharded
	sealed   atomic.Bool
	stopping atomic.Bool
	wg       sync.WaitGroup

	// Elastic worker pool state. parker holds the per-worker parking
	// channels and state words; the pending count is the pre-park
	// recheck's primary signal; parkRecheck is the recheck closure,
	// built once at New so the park path never allocates; idleSpin is
	// how many consecutive empty polls a worker tolerates before it
	// parks (idleSpinDefault; in-package tests lower it between build
	// and start); elastic gates the whole mechanism — false for the
	// blocking scheduler, whose workers sleep in the scheduler's own
	// condvar.
	parker      *sched.Parker
	parkRecheck func() bool
	idleSpin    int
	elastic     bool

	// bypass and wctx are per-worker hot-path state (successor bypass
	// slots and reusable execution contexts), indexed by worker; bypass
	// has extra slots for the root-shard indices so the ready callback
	// can index it unconditionally (those are never armed;
	// inline-serving slots are).
	bypass []bypassSlot
	wctx   []ctxSlot

	// External-event machinery (see event.go): wheel is the timer queue
	// behind Ctx.After/AfterFunc that idle threads poll; eventsHeld
	// counts tasks parked between body return and final event decrement
	// (PendingEvents).
	// A non-worker goroutine's final decrement borrows a root-shard
	// lease for its thread index (releaseExternal).
	wheel      *event.Wheel
	eventsHeld paddedCount

	// serveSlots pools the exclusive thread indices inline-serving
	// submitters borrow (see SubmitReq). Acquisition is TryAcquire-only
	// — a busy pool falls back to the dispatch path — so holding a slot
	// while executing arbitrary task bodies can never deadlock another
	// goroutine on it. It is never merged with the root-shard indices:
	// see topology.go.
	serveSlots *event.Slots
	serveBase  int // the first inline-serving index

	// noise state for the Figure 11 experiment. serves is only touched
	// while the experiment is armed (noise configured and not yet
	// fired), and only by the DTLock owner.
	serves    atomic.Int64
	noiseDone atomic.Bool

	// cells are the inline-serving slots' hand-off cells, one pair per
	// index of [serveBase, Slots): where the offers a serving slot's
	// bodies make wait (OfferNode, queue.go). Unused on the blocking
	// scheduler (elastic false), whose workers sleep in Get. The pad
	// keeps the first pair's line clear of the fields above; each pair
	// pads its own tail.
	_     [48]byte
	cells [serveSlots]cellPair
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
	rt := &Runtime{cfg: cfg, idleSpin: idleSpinDefault}
	// The thread-index space every per-"worker" structure is sized for
	// is defined ONCE, in topology.go, the root-shard count included.
	// Constructors below that take a worker count and add one slot
	// themselves receive slots-1.
	rt.rootDom = deps.NewRootDomain(max(4*cfg.Workers, 16))
	shards := rt.rootDom.Shards()
	slots := rt.Slots()
	rt.wheel = event.NewWheel(0, 0)
	rt.live = counter.NewSharded(slots)
	rt.added = counter.NewSharded(slots)
	rt.taken = counter.NewSharded(slots)
	rt.bypass = make([]bypassSlot, slots)
	rt.serveBase = cfg.Workers + shards
	rt.serveSlots = event.NewSlots(rt.serveBase, serveSlots)
	// Every slot gets a reusable execution context, not just the
	// workers: inline-serving submitters execute task bodies on their
	// own index.
	rt.wctx = make([]ctxSlot, slots)
	// Elastic parking is off for the blocking scheduler (its workers
	// already sleep inside Get). The recheck closure is built once here:
	// Park calls it after the worker is visible as parked, and it must
	// observe every signal a producer publishes before waking — the
	// scheduler pending count and the stop flag (Close never strands a
	// worker that parked between the flag store and WakeAll).
	rt.elastic = cfg.Scheduler != SchedBlocking
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
// root shards and inline-serving slots. Ctx.Worker reports an index in
// [0, Slots()) — task bodies execute on non-worker indices when an
// inline-serving submitter runs or helps them — so per-thread
// structures indexed by Ctx.Worker (for example histogram recorder
// shards) must be sized by Slots, not by Config().Workers.
func (rt *Runtime) Slots() int {
	return rt.cfg.Workers + rt.rootDom.Shards() + serveSlots
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
// to a heap slice. A task with accesses takes the shell pin here, the
// completion guard of the storage-quiescence protocol: it is dropped in
// completeOne — never earlier, deps.Unregister relies on it to cover
// the unpinned messages it sends the task's own accesses — and the
// shell is recycled by whoever drops the node's last pin (usually
// completeOne itself). An access-free task takes no guard: it gets no
// message, is never a chain tail and no dependency system pins it, so
// the count would only go 0 → 1 → 0 on one thread.
//
// deadline and epri are stored only when they differ from what the
// shell holds: an atomic Store is an XCHG, and even a plain store
// dirties the line for the core that reads it next. A stale promotion
// that raised the last incarnation's epri still differs, so it is
// still overwritten.
func (rt *Runtime) newTask(parent *Task, body func(*Ctx), accs []AccessSpec, worker int) *Task {
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
	// Attribute clauses set the task's scheduling attributes (the last
	// clause of a kind wins over the inherited value); data clauses go
	// to the node.
	nacc := 0
	for i := range accs {
		switch accs[i].attr {
		case attrNone:
			nacc++
		case attrPriority:
			t.pri = int8(sched.ClampPriority(accs[i].n))
		case attrDeadline:
			dl = int64(accs[i].n)
		case attrInherit:
			t.inherit = true
		}
	}
	if t.inherit {
		rt.deps.RecordPreds() // before t's registration: see deps.System
	}
	if t.deadline.Load() != dl {
		t.deadline.Store(dl)
	}
	if t.epri.Load() != int32(t.pri) {
		t.epri.Store(int32(t.pri))
	}
	if nacc > 0 {
		t.node.Pin()
		dst := t.node.InitAccesses(nacc)
		j := 0
		for i := range accs {
			if accs[i].attr == attrNone {
				dst[j].Init(&t.node, accs[i].data())
				j++
			}
		}
	}
	return t
}

// spawnWindow is the children a task may have in flight (about 1.4 MB
// of shells) before a body-side registration helps (helpSpawn).
const spawnWindow = 2048

// aliveBias is what a task's alive carries while its body counts
// children privately (Task.spawned): far above any number of children
// in flight, so their completions cannot take alive to zero before the
// count is folded in.
const aliveBias = 1 << 40

// inFlight returns t's children in flight, given a value of t.alive.
// Only the thread running t's body may call it: it reads t.spawned.
func (t *Task) inFlight(alive int64) int64 {
	n := alive - 1
	if t.spawned != 0 {
		n += t.spawned - aliveBias
	}
	return n
}

// fold moves the children t's body counted privately into alive and
// takes the bias back: alive becomes 1 plus the children in flight.
// Only the thread running t's body may call it, at Taskwait
// (helpWhileChildren) and when the body returns (execute) — before any
// other thread may complete t.
func (t *Task) fold() {
	if t.spawned != 0 {
		t.alive.Add(t.spawned - aliveBias)
		t.spawned = 0
	}
}

// countChild counts a child — a spawned task or an offer — that the
// running task's body hands out, on the body's own thread: the first
// count since the last fold biases the parent's alive once, later ones
// raise only parent.spawned, so handing out a child writes no line the
// children's completions write. Only parent's body thread may call it.
func countChild(parent *Task) {
	if parent.spawned == 0 {
		parent.alive.Add(aliveBias)
	}
	parent.spawned++
}

// checkWindow is the spawn window's one enforcement site, run after
// every child countChild counted: past spawnWindow children in flight,
// the body helps. In flight exceeds spawned only by loop steal
// descriptors, which are counted atomically and bypass the window, so
// alive is read only once spawned passes it.
func (rt *Runtime) checkWindow(parent *Task, worker int) {
	if parent.spawned > spawnWindow && parent.inFlight(parent.alive.Load()) > spawnWindow {
		rt.helpSpawn(parent, worker)
	}
}

// register links a child the running task's body created (Spawn,
// GoBody, Loop) into the dependency graph, counted on the body's own
// thread (countChild) and under the spawn window (checkWindow).
func (rt *Runtime) register(parent *Task, t *Task, worker int) {
	countChild(parent)
	rt.link(parent, nil, t, worker)
	rt.checkWindow(parent, worker)
}

// registerWith is the registration of every task no body counts on its
// own thread — roots, offers made tasks and loop steal descriptors: the
// parent's alive is raised atomically, then the task is linked against
// parent's own domain, or the sharded root domain when d is non-nil. It
// never helps.
func (rt *Runtime) registerWith(parent *Task, d *deps.RootDomain, t *Task, worker int) {
	// Roots have no parent to keep alive: completeOne stops at
	// &rt.global, so counting them there would be a dead RMW on a line
	// every submitter shares. admit counted them in live.
	if parent != &rt.global {
		parent.alive.Add(1)
	}
	rt.link(parent, d, t, worker)
}

// link is the shared half of both registrations, after the counts:
// trace emission and the dependency-system call (mirroring deps'
// register shape), then priority inheritance.
func (rt *Runtime) link(parent *Task, d *deps.RootDomain, t *Task, worker int) {
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

// helpSpawn runs ready tasks on the creating thread until half the
// window of parent's children is in flight, nothing is ready, or a
// window of tasks ran (a commutative child losing its token race
// cannot hold it), then emits one KSpawnHelp. It never waits.
func (rt *Runtime) helpSpawn(parent *Task, id int) {
	rt.wctx[id].helping++
	n := 0
	for n < spawnWindow && parent.inFlight(parent.alive.Load()) > spawnWindow/2 {
		k := rt.runReady(id)
		if k == 0 {
			break
		}
		n += k
	}
	rt.wctx[id].helping--
	rt.tracer.Emit(id, trace.KSpawnHelp, uint64(n))
}

// spawn implements Ctx.Spawn.
func (rt *Runtime) spawn(parent *Task, body func(*Ctx), accs []AccessSpec, worker int) {
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

// OfferNode hands graph node o, ready and access-free, to the workers
// without creating a task for it. On an inline-serving slot, from a
// level-0 task whose hand-off gates pass (mayHandOff), o is pushed into
// the slot's hand-off cells with a spawned child's bookkeeping — counted
// by the running task's body (countChild), queued in the pending count,
// a worker woken, and the spawn window (checkWindow) — and whoever
// takes it decides what it costs: the holder, while this task waits on
// its thread, runs it as a call inside the task (callOffer); anyone
// else makes it a task (offerTask), as does a push that moves it out
// of both cells.
// Anywhere else o is spawned at once, as Spawn would. A record may be
// pushed again only once its last push was claimed, which a request's
// completion implies.
func OfferNode(c *Ctx, o *Offer) {
	rt, p, id := c.rt, c.task, c.worker
	cp := rt.cellsOf(id)
	if cp == nil || p.epri.Load() != 0 || !rt.mayHandOff(p) {
		rt.spawn(p, o.body, nil, id)
		return
	}
	o.parent = p
	countChild(p)
	rt.added.Add(id, 1)
	if out := cp.push(o); out != nil {
		rt.offerTask(out, id, false)
	}
	rt.wakeWorker()
	rt.checkWindow(p, id)
}

// idleSpinDefault is a worker's idle spin budget: the consecutive empty
// scheduler polls it tolerates before it parks on its wake channel.
const idleSpinDefault = 1024

// workerLoop is the per-core scheduling loop: ask the scheduler for
// work, run it, and while idle fire due timers and climb the spin→park
// ladder — a bounded spin-yield phase (idleSpin empty polls)
// followed by parking on the worker's wake channel until a producer's
// enqueue claims it. A worker whose timer queue has a deadline within
// event.Horizon stays up instead, as the one timer owner, and holds its
// P: from the Hold that made it the owner until the Hold that steps it
// down — the idle polls after each chain it runs included — it spins
// and yields once per idleSpin polls, not on every poll, because a
// yield next to busy goroutines can return a millisecond or more later,
// and that is when the owner's timers would fire (DESIGN.md, "Why an
// owner at all"). No worker parks once the runtime is stopping (the
// stop condition below must stay polled).
// The loop exits once the runtime is stopping and no submission is live;
// each exiting worker wakes all parked peers so the exit cascades.
func (rt *Runtime) workerLoop(id int) {
	defer rt.wg.Done()
	if rt.cfg.PinWorkers {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	owner := false
	for i := 0; ; i++ {
		t0 := rt.tracer.Now()
		if t := rt.take(id, true); t != nil {
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
		if rt.elastic && i >= rt.idleSpin && !rt.stopping.Load() {
			if owner = rt.wheel.Hold(id); !owner {
				// Spin budget exhausted and no timer near enough to keep
				// this worker up as the owner: park until a producer's
				// enqueue claims this worker. Park publishes the parked
				// state before running the recheck, so an enqueue that
				// lands between the last empty poll above and the sleep is
				// never lost — either the recheck sees its pending count,
				// or the producer's WakeOne sees this worker parked.
				rt.parker.Park(id, rt.parkRecheck)
				i = -1 // restart the ladder: poll eagerly after a wake
				continue
			}
		}
		if owner {
			locks.SpinPaced(i, rt.idleSpin)
		} else {
			spinOrYield(i)
		}
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
	rt.wctx[id].helping++
	for i := 0; !done(); i++ {
		if rt.runReady(id) > 0 {
			i = 0
			continue
		}
		if rt.wheel.Poll(id) {
			i = 0
			continue
		}
		spinOrYield(i)
	}
	rt.wctx[id].helping--
}

// helpWhileChildren executes ready tasks on worker id until every child
// of t (and their descendants) has fully completed, then folds the
// children t's body counted privately into alive. It is the waiting
// half of Taskwait and of a loop owner's final-chunk barrier, and runs
// on t's body thread.
func (rt *Runtime) helpWhileChildren(t *Task, id int) {
	rt.helpUntil(id, func() bool { return t.inFlight(t.alive.Load()) == 0 })
	t.fold()
}

// runChain executes t on thread id and then every successor its
// release hands back through the bypass slot, without returning to the
// scheduler in between, and reports how many tasks it ran. Every loop
// that runs tasks — the worker loop, the helping loops, inline serving,
// a worker-side deferred release — runs them through it.
func (rt *Runtime) runChain(t *Task, id int) (n int) {
	for ; t != nil; n++ {
		t = rt.execute(t, id)
	}
	return n
}

// runReady is the helping loops' one step: take back the newest offer
// in id's own cells, if any, and run it — as a call (callOffer) or as
// the task it becomes — or else take a ready task without blocking and
// run its chain; 0 means nothing was ready.
func (rt *Runtime) runReady(id int) int {
	if o := rt.takeOffer(id); o != nil {
		if rt.callOffer(o, id) {
			return 1
		}
		if t := rt.offerTask(o, id, true); t != nil {
			return rt.runChain(t, id)
		}
	}
	return rt.runChain(rt.take(id, false), id)
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
// tasks are released (and drained in turn), completion accounting
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
		// The body's private child count joins alive here, before the
		// event hold's guard drop and before release: from either on,
		// another thread may run t's completeOne.
		t.fold()
		rt.tracer.Emit(id, trace.KTaskEnd, 0)
		if ec := t.events; ec != nil {
			// The body obtained an event counter: drop its guard. If
			// external completions are still pending the task parks —
			// dependency release and completion are deferred to the
			// final decrement (releaseDeferred) — and this worker goes
			// straight back for more work. Pin-protocol note: the
			// alive guard (and, with accesses, the shell guard)
			// survives the park (completeOne has not run), so the
			// shell cannot be recycled under the pending events, and
			// its root cannot complete, so Drain waits. eventsHeld is
			// raised before the guard drop, so the final decrementer
			// always finds it counted, and lowered (releaseDeferred)
			// before completeOne resolves the handle, so PendingEvents
			// never lags a resolved handle. After a losing guard drop,
			// t belongs to the final decrementer and must not be
			// touched here.
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
// continues as if the body had returned that error. Only the body's own
// panics are recovered (ctxSlot.recoverBody).
//
// The Ctx is the worker's reusable instance, so it never escapes to the
// heap; bodies only observe it while they run (an API guarantee). The
// task field is saved and restored around the body because taskwait
// helping nests execute — the inner body borrows the slot and the
// outer body must see its own task again afterwards.
func (rt *Runtime) runBody(t *Task, id int) {
	s := &rt.wctx[id]
	c := &s.ctx
	defer s.recoverBody(t, c.task, s.helping)
	c.task = t
	switch {
	case t.loop != nil:
		rt.runLoopBody(c, t)
	case t.fn != nil:
		if err := t.fn.Run(c); err != nil {
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
// Shell recycling is gated by the node's pin count: an access-free
// task, which holds no pin, is recycled at once; for a task with
// accesses, dropping the completion guard recycles immediately when the
// dependency system holds no further references to its access storage
// (the fast path — exclusive-access chains release during their own
// Unregister). Otherwise the shell stays out of the pool until the
// wait-free system's quiescence callback fires (early-forwarded
// readers, chain tails still registered in a live domain), which is
// what makes reusing the inline access array safe; see DESIGN.md.
func (rt *Runtime) completeOne(t *Task, id int) {
	for t != nil && t != &rt.global && t.alive.Add(-1) == 0 {
		parent := t.parent
		if parent == &rt.global {
			// A root completes after every task and offer under it, so
			// this is its whole submission's completion.
			rt.live.Add(id, -1)
		}
		req := t.req
		if t.ownsScope {
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
			t.handle.complete()
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
		// An access-free task took no shell guard (newTask), and
		// nothing else pins its node.
		if len(t.node.Accesses) == 0 || t.node.Unpin() == 0 {
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
// noiseDone load instead of bumping a counter forever. Serve/drain
// events only ever fire on the current DTLock owner, so the owner
// serialises the count's increments; the CAS keeps the stall
// exactly-once.
func (rt *Runtime) maybeInjectNoise(owner int) {
	n := rt.cfg.Noise
	if n.AfterServes <= 0 || n.Duration <= 0 || rt.noiseDone.Load() {
		return
	}
	if rt.serves.Add(1) < int64(n.AfterServes) || !rt.noiseDone.CompareAndSwap(false, true) {
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
// only at live==0, which a pending timer's task prevents (its root has
// not completed), so stopping the queue earlier could strand the pool.
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

// LiveTasks returns the number of root submissions admitted but not
// yet fully completed — a submission completes with the last task and
// offer under it (diagnostics and tests). The underlying counter is
// sharded: the value is exact once submitters and workers are
// quiescent, which is when the tests that assert on it read it.
func (rt *Runtime) LiveTasks() int64 { return rt.live.Sum() }

// Stats is a snapshot of the worker pool (Runtime.Stats): the current
// worker states and the cumulative park/wake counters. Instantaneous
// fields (Parked, Pending) are racy snapshots, exact only at
// quiescence; the cumulative counters are monotone.
type Stats struct {
	// Workers is the pool size (Config.Workers).
	Workers int
	// Parked is the number of workers currently asleep on their wake
	// channel.
	Parked int
	// Parks counts blocking parks over the runtime's lifetime
	// (cancelled parks — recheck found work — are not counted).
	Parks uint64
	// Wakes counts wake tokens delivered to parked workers.
	Wakes uint64
	// Pending is the number of tasks currently queued in the scheduler
	// plus the offers waiting in serving slots' hand-off cells (added and
	// not yet taken).
	Pending int64
}

// Stats returns a pool snapshot. On the blocking scheduler, which does
// not park, the park/wake fields stay zero and Pending still tracks the
// scheduler queues.
func (rt *Runtime) Stats() Stats {
	return Stats{
		Workers: rt.cfg.Workers,
		Parked:  rt.parker.Parked(),
		Parks:   rt.parker.Parks(),
		Wakes:   rt.parker.Wakes(),
		Pending: rt.pending(),
	}
}

// spinOrYield performs bounded busy-waiting before yielding to the Go
// scheduler, keeping oversubscribed worker counts live on small hosts.
func spinOrYield(i int) { locks.Spin(i) }
