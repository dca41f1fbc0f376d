package core

import (
	"context"
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

	// domains are the per-NUMA-domain runtime shards: each owns its own
	// scheduler policy stack, allocator free lists, pending counters and
	// shed/retention accounting. ndomains == len(domains) (cached for
	// the hot paths); slotDom materializes the slot→domain partition of
	// topology.go for every thread index. With Domains = 1 there is
	// exactly one shard and every formula collapses to the pre-sharding
	// behaviour.
	domains  []domain
	ndomains int
	slotDom  []int32

	// elevated counts queued-but-unclaimed tasks above priority level 0
	// across ALL domains. Priority, deadline and inheritance ordering
	// are runtime-wide promises, not per-domain ones: a worker whose
	// home domain holds no elevated work grabs a remote domain's
	// elevated task *eagerly* (takeElevated), outside the bounded
	// batch-shedding protocol, so QoS work is never stranded behind a
	// domain boundary while only batch work pays the locality
	// discipline. One shared counter keeps the common case (no elevated
	// work anywhere) a single read of a read-mostly line per poll.
	elevated paddedCount

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
	// channels and per-domain state words; each domain's pending count
	// (slot-sharded: added in schedAdd, taken in schedTook, summed by
	// domain.pending) is the pre-park recheck's primary signal;
	// parkRecheck is the recheck closure, built once at New so the park
	// path never allocates — it sweeps every domain's pending count so
	// a worker never parks while any domain holds shed-reachable work;
	// elastic gates the whole mechanism — false for the blocking
	// scheduler (its workers sleep in the scheduler's own condvar) and
	// for IdleSpin<0 (the pure-spin baseline).
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
	// deferred release path, wheel is the shared timer backing
	// Ctx.After/AfterFunc, and gate seals root submission for Drain
	// (entered under the registration lease's shard lock, so it adds no
	// cross-submitter cache traffic). eventsHeld counts tasks parked
	// between body return and final event decrement; together with the
	// live counter it defines Drain's quiescence.
	evSlots    *event.Slots
	wheel      *event.Wheel
	gate       *event.Gate
	eventsHeld paddedCount

	// serveSlots pools the exclusive thread indices inline-serving
	// submitters borrow (see SubmitReq); nil when Config.ServeSlots is
	// negative. Acquisition is TryAcquire-only — a busy pool falls back
	// to the dispatch path — so holding a slot while executing arbitrary
	// task bodies can never deadlock another goroutine on it. It is a
	// second pool, never merged with evSlots: see topology.go.
	serveSlots *event.Slots

	// noise state for the Figure 11 experiment. serves is sharded for
	// the same reason as live; it is only touched while the experiment
	// is armed (noise configured and not yet fired).
	serves    *counter.Sharded
	noiseDone atomic.Bool
}

// paddedCount is one cache-line-isolated atomic counter (the per-level
// pending counts below; too few and too structured for counter.Sharded).
type paddedCount struct {
	v atomic.Int64
	_ [56]byte
}

// domain is one NUMA-domain shard of the runtime: its own scheduler
// instance (the full per-level policy stack, EDF included), its own
// allocator free lists, its own pending counters, and the shed- and
// affinity-accounting the multi-domain stats report. Every per-domain
// scheduler and allocator is sized for the FULL slot space
// (topology.go), so any thread index is valid against any domain —
// cross-domain stealing needs no index translation.
type domain struct {
	sched sched.Scheduler[*Task]
	alloc alloc.Allocator[Task]

	// added and taken are the two halves of this domain's pending count
	// (scheduler-queued tasks), sharded per slot like Runtime.live and
	// both monotone: a producer bumps added on its own slot's line
	// (schedAdd/promote), a taker bumps taken on its own (schedTook), so
	// the per-task hot path writes no line another core writes. Their
	// difference (pending) is the domain's half of the Dekker
	// no-lost-wakeup argument and the shed protocol's victim signal, and
	// is only summed on slow paths.
	added *counter.Sharded
	taken *counter.Sharded

	// priPending counts this domain's scheduler-queued tasks per
	// elevated priority level (level 0 is never counted — there is no
	// lower class to protect from it). The successor-bypass gate reads
	// the levels above a candidate's own before parking it, so a
	// low-priority immediate successor cannot jump a queued
	// high-priority task of its own domain. Counting covers exactly the
	// tasks routed through sched.Add/Get. Each level sits on its own
	// cache line; runs that never set a priority only ever *read* these
	// (always-zero) lines on the bypass path, which stays cached and
	// contention-free.
	priPending [sched.PriorityLevels]paddedCount

	// shedIn/shedOut count tasks this domain stole from others /
	// surrendered to thieves; executed/executedHome count tasks
	// executed by this domain's slots and the subset whose home domain
	// this is (the affinity-retention numerator). All four are only
	// touched on multi-domain runtimes.
	shedIn       atomic.Uint64
	shedOut      atomic.Uint64
	executed     atomic.Uint64
	executedHome atomic.Uint64
	_            [48]byte // a whole number of lines per domain
}

// pending returns the number of tasks queued in the domain's scheduler
// (added and not yet taken). The read order is load-bearing: taken is
// summed FIRST, then added. Both are monotone and every take follows
// its add, so the result over-approximates the true count at the
// instant between the two sums — never negative, and never zero while
// an add the caller must observe (one sequenced before its read, the
// producer half of the Dekker argument) is still untaken. The error
// can keep a worker awake one poll too long; it cannot strand work.
// Summing added first could net a later take against a count that
// lacks its add and hide a queued task.
func (d *domain) pending() int64 {
	taken := d.taken.Sum()
	return d.added.Sum() - taken
}

// qstate encoding: a queued task's qstate word is dom<<8 | (level+1) —
// the domain whose scheduler holds the entry (all live entries of one
// task stay in one domain; promote re-ranks in place) and the priority
// level the pending counts were charged to. 0 means not queued.
const qstateDomShift = 8

// schedAdd routes a task to the producing slot's home domain,
// maintaining the domain's per-level pending counts for elevated tasks
// and its elastic pending count. Every scheduler insertion must go
// through it (ready callback, commutative re-enqueue, shed re-homing)
// so the counts match what Get can return. The queue level is the
// task's *effective* priority, and level and domain are recorded in
// qstate before the insertion so a concurrent promotion (promote) can
// re-rank the entry and move the right domain's pending counts with
// it. The order against wakeWorker is the lost-wakeup argument's
// producer half: the slot's added count is raised (sequentially
// consistent) before the parked count is read, so a worker concurrently
// publishing itself as parked either sees pending > 0 in its recheck or
// is seen here.
func (rt *Runtime) schedAdd(t *Task, worker int) {
	dom := int(rt.slotDom[worker])
	d := &rt.domains[dom]
	lvl := sched.ClampPriority(int(t.epri.Load()))
	t.qstate.Store(int32(dom<<qstateDomShift | (lvl + 1)))
	if lvl > 0 {
		d.priPending[lvl].v.Add(1)
		rt.elevated.v.Add(1)
	}
	d.added.Add(worker, 1)
	d.sched.Add(t, worker)
	rt.wakeWorker(dom)
}

// schedTook books a task that slot id obtained from domain from's
// sched.Get/TryGet out of the pending counts — on id's own taken line;
// a stale promotion duplicate counts as taken like any other entry,
// which is what keeps added - taken exact — and claims it for
// execution: the Swap on qstate is what makes a promotion's duplicate
// queue entry exactly-once — the first entry to pop wins the task,
// later (stale) entries observe qstate 0 and dissolve into a nil
// return. The per-level pending decrement uses the queue level and
// domain the winning Swap observed, which is where the increments were moved to,
// so the counts stay exact under concurrent promotion (a task's live
// entries all sit in one domain, so for a genuine claim the encoded
// domain and from agree). A recycled-shell entry (the task completed
// and the shell was re-queued for a new incarnation) is
// indistinguishable from a genuine one and harmlessly claims the new
// incarnation — it is ready and queued either way.
func (rt *Runtime) schedTook(t *Task, from, id int) *Task {
	if t == nil {
		return nil
	}
	rt.domains[from].taken.Add(id, 1)
	s := t.qstate.Swap(0)
	if s == 0 {
		return nil // stale duplicate left behind by a promotion re-push
	}
	if lvl := int(s) & (1<<qstateDomShift - 1); lvl > 1 {
		rt.domains[s>>qstateDomShift].priPending[lvl-1].v.Add(-1)
		rt.elevated.v.Add(-1)
	}
	return t
}

// promote raises t's effective priority to at least lvl and, when t is
// currently queued below lvl, re-ranks it: the queue entry cannot be
// removed from the policy lanes, so a *duplicate* entry is pushed at
// the new level and qstate's Swap-claim in schedTook makes whichever
// entry pops first the unique executor. Returns whether the effective
// priority was actually raised — the transitive inheritance walk stops
// at tasks already at or above the target level (which also bounds the
// walk: epri is monotone per incarnation, so any task is raised to a
// given level at most once).
//
// One narrow window is accepted as best-effort: a task between its
// ready callback and schedAdd's qstate store observes the epri raise
// (schedAdd reads epri after) but a task *executing* or already claimed
// keeps running at its old level — promotion cannot preempt.
func (rt *Runtime) promote(t *Task, lvl, worker int) bool {
	for {
		cur := t.epri.Load()
		if int(cur) >= lvl {
			return false
		}
		if t.epri.CompareAndSwap(cur, int32(lvl)) {
			break
		}
	}
	for {
		s := t.qstate.Load()
		cur := int(s) & (1<<qstateDomShift - 1)
		if s == 0 || cur >= lvl+1 {
			// Not queued (the raise alone suffices: a later schedAdd
			// reads epri) or already ranked at/above the target.
			return true
		}
		dom := int(s) >> qstateDomShift
		if t.qstate.CompareAndSwap(s, int32(dom<<qstateDomShift|(lvl+1))) {
			// Move the owning domain's pending counts to the new level
			// and push the duplicate into that same domain (all live
			// entries of a task stay in one domain, which is what lets
			// schedTook charge the encoded domain); counts before Add,
			// Add before wake, as in schedAdd.
			d := &rt.domains[dom]
			if cur > 1 {
				d.priPending[cur-1].v.Add(-1)
			} else {
				// Promoted out of level 0: newly elevated (a move between
				// elevated levels leaves the global count unchanged).
				rt.elevated.v.Add(1)
			}
			d.priPending[lvl].v.Add(1)
			d.added.Add(worker, 1)
			d.sched.Add(t, worker)
			rt.wakeWorker(dom)
			return true
		}
	}
}

// promotePreds is the priority-inheritance walk: promote every
// recorded immediate predecessor of n to at least lvl, recursing into
// the predecessors of any task the promotion actually raised. The
// recorded slots are revalidated by generation (deps.VisitPreds), and
// a predecessor that already completed — or whose shell was recycled
// mid-walk — is skipped; every mutation on a stale shell is a CAS on
// monotone state, so the worst case is a bounded scheduling anomaly
// (an unrelated task rides one level high), never double execution.
func (rt *Runtime) promotePreds(n *deps.Node, lvl, worker int) {
	n.VisitPreds(func(p *deps.Node) {
		pt, ok := p.Payload.(*Task)
		if !ok || pt == nil || pt.alive.Load() <= 0 {
			return
		}
		if rt.promote(pt, lvl, worker) {
			rt.promotePreds(p, lvl, worker)
		}
	})
}

// wakeWorker wakes at most one parked worker on behalf of domain dom's
// queue; producers call it after making work visible (scheduler
// insertion). With no worker parked — or elastic parking disabled — it
// is a single atomic load: the parked count is tested BEFORE the
// domain's pending count is summed, so a busy pool never pays the sum.
// With someone parked, pending is computed here, after the insertion,
// and handed to the parker's wake-throttle: when enough
// woken-but-not-yet-polling workers already cover the backlog, the
// redundant claim scan is skipped (burst producers would otherwise pay
// one scan per enqueue). pending's over-approximation only makes the
// throttle fire less often.
func (rt *Runtime) wakeWorker(dom int) {
	if rt.elastic && rt.parker.Parked() > 0 {
		rt.parker.WakeOne(dom, rt.domains[dom].pending())
	}
}

// higherPriPending reports whether any task with a priority level above
// pri is currently queued in domain dom's scheduler. It is a
// conservative best-effort read (concurrent Adds and Gets move the
// counts), used to keep the successor bypass from starving queued
// higher-priority work of its own domain — remote domains' backlogs
// are their own workers' (and the shed protocol's) business.
func (rt *Runtime) higherPriPending(pri int8, dom int) bool {
	d := &rt.domains[dom]
	for l := int(pri) + 1; l < sched.PriorityLevels; l++ {
		if d.priPending[l].v.Load() > 0 {
			return true
		}
	}
	return false
}

// mayHandOff holds the two gates every immediate-successor hand-off
// passes before work of t's scope and effective level runs next on a
// thread of domain dom without a scheduling decision: the scope is
// healthy (a cancelled scope's tasks drain through the scheduler) and
// nothing of a higher level is queued in dom (the priority policy must
// order the two). The ready callback asks it about the task it would
// park in the bypass slot, ContinueNode about the running task itself.
func (rt *Runtime) mayHandOff(t *Task, dom int) bool {
	return t.sc.abortCause() == nil && !rt.higherPriPending(int8(t.epri.Load()), dom)
}

// New builds and starts a runtime. The caller must Close it.
func New(cfg Config) *Runtime {
	rt := build(cfg)
	rt.start()
	return rt
}

// build constructs a fully wired runtime without starting its worker
// pool; start launches it. The split exists for the deterministic
// shed-protocol tests, which enqueue into a quiescent runtime and
// drive shedTake by hand.
func build(cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	rt := &Runtime{cfg: cfg, ndomains: cfg.Domains}
	rt.rootDom = deps.NewRootDomain(cfg.RootShards)
	// The thread-index space every per-"worker" structure is sized for
	// and its partition into NUMA domains are defined ONCE, in
	// topology.go; slotDom materializes the slot→domain formula.
	// Constructors below that take a worker count and add one slot
	// themselves receive slots-1.
	slots := cfg.Workers + cfg.RootShards + cfg.EventSlots + cfg.ServeSlots
	rt.slotDom = make([]int32, slots)
	for s := range rt.slotDom {
		rt.slotDom[s] = int32(slotDomain(s, cfg.Workers, cfg.Domains))
	}
	rt.evSlots = event.NewSlots(cfg.Workers+cfg.RootShards, cfg.EventSlots)
	rt.wheel = event.NewWheel(cfg.EventTick, 0)
	rt.gate = event.NewGate(cfg.RootShards)
	rt.live = counter.NewSharded(slots)
	rt.serves = counter.NewSharded(slots)
	rt.bypass = make([]bypassSlot, slots)
	if cfg.ServeSlots > 0 {
		rt.serveSlots = event.NewSlots(cfg.Workers+cfg.RootShards+cfg.EventSlots, cfg.ServeSlots)
	}
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
	rt.parker = sched.NewParker(cfg.Workers, cfg.Domains,
		func(id int) int { return int(rt.slotDom[id]) })
	rt.parkRecheck = func() bool {
		if rt.stopping.Load() {
			return true
		}
		// Every domain's pending count, not just the parker's own: a
		// worker whose home is idle must stay awake while any domain
		// holds work it could reach through the shed protocol (the
		// cross-domain half of the no-lost-wakeup argument).
		for d := range rt.domains {
			if rt.domains[d].pending() > 0 {
				return true
			}
		}
		return false
	}
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
		dom := int(rt.slotDom[worker])
		// The readying slot's domain is the task's home for the
		// affinity-retention accounting, whichever routing wins below
		// (a bypassed task executes on this domain by construction).
		t.home = int8(dom)
		if bs := &rt.bypass[worker]; bs.armed && bs.next == nil &&
			!n.HasCommutative() && rt.mayHandOff(t, dom) {
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
		dlOf = func(t *Task) int64 { return t.deadline }
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
		// elevated work that arrived after the buffer was filled, in any
		// domain: the runtime-wide count closes every run buffer.
		Elevated: func() bool { return rt.elevated.v.Load() > 0 },
	}
	// One full scheduler stack and allocator per domain, each sized for
	// the complete slot space: any thread index may Add to (or TryGet
	// from) any domain, which is what makes cross-domain stealing and
	// promotion re-pushes index-translation-free. Workers only Get from
	// their home domain; remote domains are reached through shedTake's
	// bounded TryGet.
	rt.domains = make([]domain, cfg.Domains)
	for i := range rt.domains {
		d := &rt.domains[i]
		d.added = counter.NewSharded(slots)
		d.taken = counter.NewSharded(slots)
		switch cfg.Scheduler {
		case SchedSyncDTLock:
			// Only the domain's own workers are served in batches: a
			// remote thief's TryGet moves exactly one task (ShedBatch).
			if cfg.Domains > 1 {
				hooks.Home = func(w int) bool { return int(rt.slotDom[w]) == i }
			}
			d.sched = sched.NewSync(mkPolicy(), cfg.Workers, slots-cfg.Workers, cfg.NUMANodes, cfg.SPSCCap, hooks)
		case SchedCentralPTLock:
			d.sched = sched.NewCentral(mkPolicy(), slots-1)
		case SchedBlocking:
			d.sched = sched.NewBlocking(mkPolicy())
		case SchedWorkStealing:
			d.sched = sched.NewWorkStealing[*Task](slots - 1)
		default:
			panic(fmt.Sprintf("core: unknown scheduler kind %d", cfg.Scheduler))
		}
		switch cfg.Alloc {
		case AllocPooled:
			d.alloc = alloc.NewPooled[Task](slots-1, 64)
		case AllocSerial:
			d.alloc = alloc.NewSerial[Task]()
		default:
			panic(fmt.Sprintf("core: unknown alloc kind %d", cfg.Alloc))
		}
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

// allocGet and allocPut route task-shell allocation through the
// slot's home domain's allocator (per-domain free lists and fallback
// arenas; see topology.go for the partition).
func (rt *Runtime) allocGet(worker int) *Task {
	return rt.domains[rt.slotDom[worker]].alloc.Get(worker)
}

func (rt *Runtime) allocPut(worker int, t *Task) {
	rt.domains[rt.slotDom[worker]].alloc.Put(worker, t)
}

// recycleQuiescent is the wait-free system's quiescence callback: it
// recycles a task shell whose access storage quiesced only after the
// task had fully completed (e.g. early-forwarded readers that finish
// before their predecessor releases to them, or chain tails replaced
// later).
func (rt *Runtime) recycleQuiescent(n *deps.Node, worker int) {
	t := n.Payload.(*Task)
	t.reset()
	rt.allocPut(worker, t)
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
	return rt.cfg.Workers + rt.cfg.RootShards + rt.cfg.EventSlots + rt.cfg.ServeSlots
}

// Tracer returns the instrumentation backend, or nil when tracing is
// disabled.
func (rt *Runtime) Tracer() *trace.Tracer { return rt.tracer }

// SchedulerName and DepsName identify the wired implementations.
func (rt *Runtime) SchedulerName() string { return rt.domains[0].sched.Name() }

// DepsName returns the dependency system's name.
func (rt *Runtime) DepsName() string { return rt.deps.Name() }

// Run submits a root task and blocks until it and all its descendants
// have fully completed. It returns the scope's aggregate error: task
// errors (from GoFn bodies or recovered panics) joined per the
// configured ErrorPolicy, or nil when every task succeeded. Run may be
// called repeatedly, from multiple goroutines; submissions whose
// accesses hash to different root-domain shards register in parallel,
// and same-shard registrations serialize only on that shard's lock.
func (rt *Runtime) Run(body func(*Ctx), accs ...deps.AccessSpec) error {
	return rt.RunCtx(context.Background(), body, accs...)
}

// RunCtx is Run honoring a caller context: when ctx is cancelled (or
// its deadline passes), tasks of this submission that have not started
// are drained without executing — the dependency graph and live-task
// accounting still unwind normally, so RunCtx returns only after the
// scope has fully drained, with the cancellation cause. Tasks whose
// bodies already started run to completion; they can poll Ctx.Err to
// stop early.
func (rt *Runtime) RunCtx(ctx context.Context, body func(*Ctx), accs ...deps.AccessSpec) error {
	h := rt.submitRoot(ctx, body, nil, accs)
	// The root's completion folded the scope's aggregate error into the
	// handle (completeOne); read that snapshot rather than recomputing,
	// so Run's return and the Handle always agree.
	<-h.done
	return h.err
}

// Submit submits a root task whose body returns a result and an error,
// without waiting: the returned Handle delivers them at the task's full
// completion. Submissions participate in root-level dependency chains
// exactly like Run roots (matching accesses order them). The typed
// façade wrapper is repro.Submit.
func (rt *Runtime) Submit(fn func(*Ctx) (any, error), accs ...deps.AccessSpec) *Handle {
	return rt.SubmitCtx(context.Background(), fn, accs...)
}

// SubmitCtx is Submit with a caller context; cancellation drains the
// task (and any descendants) as in RunCtx, and the Handle reports the
// cause.
func (rt *Runtime) SubmitCtx(ctx context.Context, fn func(*Ctx) (any, error), accs ...deps.AccessSpec) *Handle {
	return rt.submitRoot(ctx, nil, fn, accs)
}

// submitRoot creates one root task with a fresh (pooled)
// error/cancellation scope and registers it into the sharded root
// domain. The lease taken here locks every shard the access addresses
// hash to, in ascending order; its lowest shard selects the submitter
// slot whose thread-local structures (allocator free list, dependency
// mailbox, scheduler insertion index, trace buffer) this registration
// uses exclusively. Submissions on disjoint shard sets run this whole
// path in parallel.
func (rt *Runtime) submitRoot(ctx context.Context, body func(*Ctx), fn func(*Ctx) (any, error), accs []deps.AccessSpec) *Handle {
	sc := newScope(ctx, rt.cfg.OnError)
	h := newHandle()
	lease := rt.rootDom.Acquire(accs)
	// The drain gate is entered under the lease (the shard lock makes
	// the per-shard count uncontended) and left once registration has
	// raised the live count, which hands Drain's quiescence wait the
	// task. A sealed runtime resolves the handle immediately.
	if !rt.gate.Enter(lease.Slot()) {
		lease.Release()
		sc.release()
		h.err = ErrRuntimeDraining
		close(h.done)
		return h
	}
	slot := rt.cfg.Workers + lease.Slot()
	t := rt.newTask(&rt.global, body, accs, slot)
	t.fn = fn
	t.sc = sc
	t.handle = h
	t.ownsScope = true
	rt.registerWith(&rt.global, rt.rootDom, t, slot)
	rt.gate.Leave(lease.Slot())
	lease.Release()
	return h
}

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
	t := rt.allocGet(worker)
	t.body = body
	t.parent = parent
	t.sc = parent.sc
	t.pri = parent.pri
	t.inherit = parent.inherit
	t.deadline = parent.deadline
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
			t.deadline = int64(accs[i].Len)
			nacc--
		case deps.InheritClause:
			t.inherit = true
			nacc--
		}
	}
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
	if !rt.mayHandOff(c.task, int(rt.slotDom[c.worker])) {
		return false
	}
	rt.tracer.Emit(c.worker, trace.KNodeContinue, uint64(node))
	return true
}

// workerLoop is the per-core scheduling loop: ask the home domain's
// scheduler for work, run it, and while idle climb the spin→park
// ladder — a bounded spin-yield phase (Config.IdleSpin empty polls)
// followed by parking on the worker's wake channel until a producer's
// enqueue claims it. The first Config.MinWorkers workers never park;
// neither does anyone once the runtime is stopping (the stop condition
// below must stay polled). The loop exits once the runtime is stopping
// and no live tasks remain; each exiting worker wakes all parked peers
// so the exit cascades.
//
// On multi-domain runtimes the loop additionally runs the bounded
// work-shedding protocol: only after the home domain's poll comes up
// empty twice in a row may the worker steal — at most Config.ShedBatch
// tasks from one remote domain (shedTake) — before the cycle resets
// and the right must be re-earned. Stealing is the ONLY path a queued
// task crosses domains on, which is what keeps the per-domain Dekker
// argument intact: every producer still wakes against the domain it
// enqueued into.
func (rt *Runtime) workerLoop(id int) {
	defer rt.wg.Done()
	if rt.cfg.PinWorkers {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	home := int(rt.slotDom[id])
	canPark := rt.elastic && id >= rt.cfg.MinWorkers
	spinning := false
	empties := 0   // consecutive empty home polls (shed-cycle trigger)
	victim := home // round-robin shed victim cursor
	for i := 0; ; i++ {
		t0 := rt.tracer.Now()
		var t *Task
		if rt.ndomains > 1 && rt.elevated.v.Load() > 0 && !rt.higherPriPending(0, home) {
			// Elevated work exists somewhere and none of it is home:
			// grab it eagerly across the domain boundary — priority and
			// deadline ordering are runtime-wide promises, and only
			// batch work pays the bounded-shedding locality discipline.
			t = rt.takeElevated(id, home)
		}
		if t == nil {
			t = rt.schedTook(rt.domains[home].sched.Get(id), home, id)
		}
		if t == nil && rt.ndomains > 1 {
			empties++
			if empties >= 2 {
				empties = 0
				t = rt.shedTake(id, home, &victim)
			}
		} else {
			empties = 0
		}
		if t != nil {
			if spinning {
				rt.parker.MarkRunning(id)
				spinning = false
			}
			rt.tracer.EmitTS(id, trace.KSchedEnter, 0, t0)
			rt.tracer.Emit(id, trace.KSchedLeave, 0)
			// Run the task and then any chain of bypassed successors it
			// releases, without returning to the scheduler in between.
			for t != nil {
				t = rt.execute(t, id)
			}
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
		if canPark && i >= rt.cfg.IdleSpin && !rt.stopping.Load() {
			// Spin budget exhausted: park until a producer's enqueue
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

// shedTake is one work-shedding cycle for worker id of domain home: it
// scans the remote domains round-robin from *victim and takes at most
// Config.ShedBatch tasks from the first one that yields any. The first
// stolen task is returned for immediate execution; the rest are
// re-homed into the thief's own domain (schedAdd with the thief's
// index), so a batch migrates as a unit and the thief's domain-mates
// help drain it. Callers gate the cycle on two consecutive empty home
// polls; within a cycle no second victim is opened once one has paid
// out, so a cycle moves tasks from exactly one remote domain and never
// more than ShedBatch of them — the bound the deterministic shed unit
// pins.
func (rt *Runtime) shedTake(id, home int, victim *int) *Task {
	// Offsets 1..ndomains relative to the cursor cover every domain:
	// the previous victim sorts last (freshly milked), but stays
	// reachable — with two domains it is the only candidate.
	for off := 1; off <= rt.ndomains; off++ {
		v := (*victim + off) % rt.ndomains
		if v == home {
			continue
		}
		d := &rt.domains[v]
		if d.pending() <= 0 {
			continue
		}
		var first *Task
		taken := 0
		for taken < rt.cfg.ShedBatch {
			raw := d.sched.TryGet(id)
			if raw == nil {
				break
			}
			t := rt.schedTook(raw, v, id)
			if t == nil {
				continue // stale promotion duplicate: consumed, not stolen
			}
			taken++
			if first == nil {
				first = t
			} else {
				rt.schedAdd(t, id)
			}
		}
		if first != nil {
			d.shedOut.Add(uint64(taken))
			rt.domains[home].shedIn.Add(uint64(taken))
			*victim = v
			return first
		}
	}
	return nil
}

// takeElevated claims one elevated (priority level > 0) task from a
// remote domain. Unlike shedTake it needs no empty-recheck earnings —
// callers gate it on the global elevated count and on their home
// domain holding no elevated work of its own, so it fires only when
// QoS work would otherwise wait for a remote domain's workers. The
// claim is one TryGet of the first remote domain whose per-level
// pending counts show elevated work; the priority policy orders that
// domain's queue, so the popped task is its best elevated candidate (a
// losing race may hand back a batch task instead — a bounded,
// one-task migration, charged to the shed counters like any other
// cross-domain move).
func (rt *Runtime) takeElevated(id, home int) *Task {
	for off := 1; off <= rt.ndomains; off++ {
		v := (home + off) % rt.ndomains
		if v == home || !rt.higherPriPending(0, v) {
			continue
		}
		if t := rt.schedTook(rt.domains[v].sched.TryGet(id), v, id); t != nil {
			rt.domains[v].shedOut.Add(1)
			rt.domains[home].shedIn.Add(1)
			return t
		}
	}
	return nil
}

// takeWork is the non-blocking work source of the helping loops
// (Taskwait, loop-owner completion wait): the caller's home domain,
// then — on multi-domain runtimes — every remote domain in turn. A
// helper is already blocked on a condition only other tasks can
// satisfy, so unlike workerLoop it scans remotes unboundedly: a
// waited-on subgraph whose tasks were shed to another domain must stay
// reachable or the help loop could spin forever.
func (rt *Runtime) takeWork(id int) *Task {
	home := int(rt.slotDom[id])
	if t := rt.schedTook(rt.domains[home].sched.TryGet(id), home, id); t != nil {
		return t
	}
	for off := 1; off < rt.ndomains; off++ {
		v := (home + off) % rt.ndomains
		d := &rt.domains[v]
		if d.pending() <= 0 {
			continue
		}
		if t := rt.schedTook(d.sched.TryGet(id), v, id); t != nil {
			d.shedOut.Add(1)
			rt.domains[home].shedIn.Add(1)
			return t
		}
	}
	return nil
}

// helpUntil is the runtime's one blocking-help loop: execute ready
// tasks on worker id until done() reports true, spin-yielding only
// when no work is available. Every in-task wait routes through it —
// Taskwait and the loop owner's final-chunk barrier (helpWhileChildren)
// and the handle wait of Ctx.Await — so "waiting means helping" is
// implemented (and tuned) in exactly one place. done must be cheap; it
// is polled between tasks. The func value is only called, never
// stored, so closure arguments stay on the caller's stack.
func (rt *Runtime) helpUntil(id int, done func() bool) {
	for i := 0; !done(); i++ {
		if other := rt.takeWork(id); other != nil {
			// Execute the task and any bypassed successor chain it
			// releases; helping with ready work is the point of the loop.
			for other != nil {
				other = rt.execute(other, id)
			}
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
	if rt.ndomains > 1 {
		// Affinity-retention accounting (multi-domain only, so the
		// single-domain hot path pays one predictable branch): charge
		// the executing slot's domain, and the home-hit counter when
		// the task runs where its ready callback homed it.
		d := &rt.domains[rt.slotDom[id]]
		d.executed.Add(1)
		if int(t.home) == int(rt.slotDom[id]) {
			d.executedHome.Add(1)
		}
	}
	cause := t.sc.abortCause()
	if cause == nil && t.node.HasCommutative() && !t.node.TryAcquireCommutative() {
		// Lost the token race: re-enqueue and let the worker move on.
		rt.schedAdd(t, id)
		runtime.Gosched()
		return nil
	}
	if cause != nil {
		// Drained: record the skip on the task's handle, if it has one.
		// Skips are not scope errors — only their cause is.
		rt.tracer.Emit(id, trace.KTaskCancel, 0)
		if t.handle != nil && t.handle.err == nil {
			t.handle.err = &skipError{cause: cause}
		}
		if t.req != nil && t.req.err == nil {
			t.req.err = &skipError{cause: cause}
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

	// Arm the bypass slot for the duration of the dependency release:
	// the ready callback parks the first eligible successor here. The
	// slot is disarmed before completeOne so a recycled shell can never
	// alias the parked task.
	bs := &rt.bypass[id]
	bs.armed = true
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
// fold their scope's aggregate error into the handle and release the
// scope's context registration.
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
		if r := req; r != nil {
			// Claim the fold: wait out a waiter-side deadline cancel
			// (tryCancel holds reqCancelling only around the scope
			// cancel), after which the waiter can no longer touch the
			// scope and the aggregate is final.
			for i := 0; !r.state.CompareAndSwap(reqIdle, reqDone); i++ {
				spinOrYield(i)
			}
			if agg := t.sc.err(); agg != nil {
				if sk, ok := r.err.(*skipError); ok {
					// The root itself was drained: keep the
					// ErrTaskSkipped marker, carry the aggregate (which
					// wraps the cancellation cause) as its cause.
					sk.cause = agg
				} else {
					r.err = agg
				}
			}
			r.sc = nil
		}
		if t.handle != nil {
			if t.ownsScope {
				if agg := t.sc.err(); agg != nil {
					if sk, ok := t.handle.err.(*skipError); ok {
						// The root itself was drained: keep the
						// ErrTaskSkipped marker and carry the scope's
						// aggregate (which wraps the cancellation
						// cause) as its cause.
						sk.cause = agg
					} else {
						t.handle.err = agg
					}
				}
			}
			close(t.handle.done)
		}
		if t.ownsScope {
			// The root completes last in its scope: every descendant
			// already dropped its scope reference on completion, so the
			// scope can be recycled for a future submission.
			t.sc.release()
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
			rt.allocPut(id, t)
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
// flight.) The timer wheel stops after the workers: a worker exits
// only at live==0, which a pending timer's task prevents, so stopping
// the wheel earlier could strand the pool.
func (rt *Runtime) Close() {
	rt.stopping.Store(true)
	for d := range rt.domains {
		rt.domains[d].sched.Stop()
	}
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

// DomainStats is one NUMA domain's slice of a Stats snapshot: its
// share of the worker pool and park/wake activity, its scheduler
// backlog, the work-shedding flow through it, and the affinity
// accounting behind the locality benchmarks. Instantaneous fields
// (Workers aside) are racy snapshots like the flat ones.
type DomainStats struct {
	// Workers is the number of worker goroutines homed in this domain.
	Workers int
	// Parked is the number of this domain's workers currently asleep.
	Parked int
	// Parks and Wakes are the domain's cumulative blocking parks and
	// delivered wake tokens.
	Parks uint64
	Wakes uint64
	// Pending is the number of tasks currently queued in this domain's
	// scheduler (added and not yet taken).
	Pending int64
	// ShedIn and ShedOut count tasks this domain's workers stole from
	// remote domains, and tasks remote thieves took from this one.
	ShedIn  uint64
	ShedOut uint64
	// Executed counts tasks executed by this domain's slots, and
	// ExecutedHome the subset whose home domain this was — their ratio
	// is the domain's affinity retention. Only maintained on
	// multi-domain runtimes (zero otherwise).
	Executed     uint64
	ExecutedHome uint64
}

// Stats is a snapshot of the worker pool (Runtime.Stats): the current
// worker states, the cumulative park/wake counters, and one
// DomainStats per NUMA domain. The flat fields are computed totals
// across the domains, so single-domain callers (and the pre-domain
// gates) read them unchanged. Instantaneous fields (Parked, Spinning,
// Pending) are racy snapshots, exact only at quiescence; the
// cumulative counters are monotone.
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
	// Pending is the number of tasks currently queued across every
	// domain's scheduler (added and not yet taken).
	Pending int64
	// Domains holds the per-domain breakdown (always at least one
	// entry; exactly one on an unsharded runtime).
	Domains []DomainStats
}

// Stats returns a pool snapshot. With parking disabled (blocking
// scheduler, or IdleSpin < 0) the park/wake fields stay zero and
// Pending still tracks the scheduler queues.
func (rt *Runtime) Stats() Stats {
	s := Stats{
		Workers:  rt.cfg.Workers,
		Parked:   rt.parker.Parked(),
		Spinning: rt.parker.Spinning(),
		Domains:  make([]DomainStats, rt.ndomains),
	}
	for i := range s.Domains {
		d := &rt.domains[i]
		ds := &s.Domains[i]
		ds.Parked = rt.parker.ParkedIn(i)
		ds.Parks = rt.parker.ParksIn(i)
		ds.Wakes = rt.parker.WakesIn(i)
		ds.Pending = d.pending()
		ds.ShedIn = d.shedIn.Load()
		ds.ShedOut = d.shedOut.Load()
		ds.Executed = d.executed.Load()
		ds.ExecutedHome = d.executedHome.Load()
		s.Parks += ds.Parks
		s.Wakes += ds.Wakes
		s.Pending += ds.Pending
	}
	for id := 0; id < rt.cfg.Workers; id++ {
		s.Domains[rt.slotDom[id]].Workers++
	}
	return s
}

// spinOrYield performs bounded busy-waiting before yielding to the Go
// scheduler, keeping oversubscribed worker counts live on small hosts.
func spinOrYield(i int) { locks.Spin(i) }
