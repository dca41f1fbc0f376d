package core

import (
	"sync/atomic"
	"time"

	"repro/internal/deps"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Queue accounting: every insertion and claim of a ready task goes
// through schedAdd and schedTook, which keep the pending counts the
// park/wake protocol and the priority gates read. A queued task waits in
// the scheduler; take is the one place it is looked for. An offer
// (OfferNode) waiting in an inline-serving slot's hand-off cells is
// counted as queued too, and claimed by its slot's holder (takeOffer)
// or by a thief (stealCell).

// pending returns the number of tasks and offers queued (added and not
// yet taken), in the scheduler or in a hand-off cell. The read order is
// load-bearing: taken is summed FIRST, then added. Both are monotone and every take follows
// its add, so the result over-approximates the true count at the
// instant between the two sums — never negative, and never zero while
// an add the caller must observe (one sequenced before its read, the
// producer half of the Dekker argument) is still untaken. The error
// can keep a worker awake one poll too long; it cannot strand work.
// Summing added first could net a later take against a count that
// lacks its add and hide a queued task.
func (rt *Runtime) pending() int64 {
	taken := rt.taken.Sum()
	return rt.added.Sum() - taken
}

// schedAdd queues a ready task in the scheduler, maintaining the
// per-level pending counts for elevated tasks and the elastic pending
// count. Every insertion must go through it (ready callback, commutative
// re-enqueue, an offer made a task) so the counts match what take can
// return. A task readied on an inline-serving slot is queued here like
// any other: the slot's cells hold offers, never tasks. The queue level
// is the task's *effective* priority, and it is recorded in qstate (as
// level+1; 0 means not queued) before the insertion so a concurrent
// promotion (promote) can re-rank the entry and move the pending counts
// with it. The order against wakeWorker is the lost-wakeup argument's
// producer half: the slot's added count is raised (sequentially
// consistent) before the parked count is read, so a worker concurrently
// publishing itself as parked either sees pending > 0 in its recheck or
// is seen here.
func (rt *Runtime) schedAdd(t *Task, worker int) {
	lvl := sched.ClampPriority(int(t.epri.Load()))
	t.qstate.Store(int32(lvl + 1))
	if lvl > 0 {
		rt.priPending[lvl].v.Add(1)
	}
	rt.added.Add(worker, 1)
	rt.sched.Add(t, worker)
	rt.wakeWorker()
}

// Offer is a compiled-graph node a serving body hands to its slot's
// hand-off cells instead of spawning it (OfferNode): the work-first
// half of the immediate-successor hand-off, done as lazy task creation
// (Mohr, Kranz and Halstead, 1991). The record belongs to the caller —
// a GraphExec frame binds one per node with NewOffer and reuses it for
// every request — and holds the node's body, its index for the trace,
// and, while it waits in a cell, the task it is a child of. A push costs
// what a task's queueing costs, the counts and the wake; only a thief
// pays for a task.
type Offer struct {
	body   func(*Ctx)
	parent *Task
	node   int
}

// NewOffer binds body, the body of graph node node, into an offer
// record for OfferNode.
func NewOffer(body func(*Ctx), node int) Offer {
	return Offer{body: body, node: node}
}

// cellPair is one inline-serving slot's two hand-off cells, on a cache
// line of their own. A request served inline offers its fan-out
// siblings on the submitter's slot; they wait here, within the
// submitter's reach, for the submitter's next take — it runs the newest
// first — while an idle thread whose scheduler poll came up empty
// steals the oldest once the holder has left the cells untouched for
// cellGrace. Only the slot's holder pushes (the index is exclusive,
// topology.go); anyone may claim, the holder with a CompareAndSwap,
// everyone else with a Swap(nil), so each offer has exactly one taker.
// touched counts the holder's pushes and takes; only the holder writes
// it, on the line its push or take writes anyway.
type cellPair struct {
	c       [2]atomic.Pointer[Offer]
	touched atomic.Uint32
	_       [44]byte
}

// cellGrace is how long a serving slot's holder may leave an offer in
// its cells, without pushing or taking, before a thief steals it. A
// holder that is serving takes its cells within a body or two, and a
// steal then only moves the rest of the request to another thread:
// stealing at first sight, graph_closed (two cores) lost 2 000 to
// 30 000 of a window's 350 000 siblings, each costing about 5 us of
// wall time, and the count, so the throughput, moved with each window's
// timing. A holder stuck in a long body, or gone (its request done),
// leaves its cells untouched, and they are stolen after the grace. Like
// the Go scheduler's few-microsecond wait before it steals a P's
// runnext, the grace only has to be long against the holder's next
// take and short against a body worth running in parallel.
const cellGrace = 20 * time.Microsecond

// cellWatch is a thief's last sighting of one serving slot's occupied
// cells: the holder's touch count it read, and since when it has read
// that count (0: no sighting).
type cellWatch struct {
	touched uint32
	since   int64
}

// cellsOf returns the hand-off cells of slot id, or nil when id is not
// an inline-serving slot or the runtime's workers sleep in the
// blocking scheduler's Get, where they would never look.
func (rt *Runtime) cellsOf(id int) *cellPair {
	if i := id - rt.serveBase; rt.elastic && i >= 0 && i < serveSlots {
		return &rt.cells[i]
	}
	return nil
}

// push puts o in the first cell, moving the offer it displaces to the
// second, and returns the offer pushed out of both (nil if none), which
// the caller makes a task.
func (cp *cellPair) push(o *Offer) *Offer {
	cp.touched.Add(1)
	if o = cp.c[0].Swap(o); o != nil {
		o = cp.c[1].Swap(o)
	}
	return o
}

// take is the one task claim of every loop that runs tasks (the worker
// loop, runReady): the scheduler — Get when wait is set (the worker
// loop), else TryGet — and, only when it had nothing, the other serving
// slots' cells, oldest first, once their holder has left them untouched
// for cellGrace (stealCell). A stolen offer becomes a task here
// (offerTask), which take returns unless a hand-off gate sent it to the
// scheduler. A slot's own cells are runReady's to look in (takeOffer).
// The scheduler entry found is claimed through schedTook.
func (rt *Runtime) take(id int, wait bool) *Task {
	var t *Task
	if wait {
		t = rt.sched.Get(id)
	} else {
		t = rt.sched.TryGet(id)
	}
	if t == nil && rt.elastic {
		if o := rt.stealCell(id); o != nil {
			return rt.offerTask(o, id, true)
		}
	}
	return rt.schedTook(t, id)
}

// takeOffer claims the newest offer in id's own cells, when id is an
// inline-serving slot — passed over while elevated work is queued, so
// the policy orders that first (the lock-free reading of "elevated work
// is waiting", as for the bypass slot; offers are level 0). It is the
// first step of the holder's runReady. No ABA: only this thread pushes
// to its cells, so between the Load and the CompareAndSwap a cell can
// only be emptied.
func (rt *Runtime) takeOffer(id int) *Offer {
	cp := rt.cellsOf(id)
	if cp == nil {
		return nil
	}
	for i := range cp.c {
		c := &cp.c[i]
		if o := c.Load(); o != nil && !rt.higherPriPending(0) && c.CompareAndSwap(o, nil) {
			cp.touched.Add(1)
			return o
		}
	}
	return nil
}

// stealCell claims the oldest offer in another inline-serving slot's
// cells, once id has watched that slot's holder leave them untouched
// for cellGrace, and records one KCellSteal (Arg = the slot robbed).
// The first sighting of occupied cells, or of a touch count that moved
// since the last one, only starts the watch. A cell found empty is only
// loaded, never swapped, so idle pollers do not write the lines the
// submitters push to.
func (rt *Runtime) stealCell(id int) *Offer {
	watch := &rt.bypass[id].watch
	for i := range rt.cells {
		slot := rt.serveBase + i
		if slot == id {
			continue
		}
		cp := &rt.cells[i]
		if cp.c[0].Load() == nil && cp.c[1].Load() == nil {
			continue
		}
		w, n, now := &watch[i], cp.touched.Load(), NowNS()
		if w.since == 0 || w.touched != n {
			w.touched, w.since = n, now
			continue
		}
		if now-w.since < int64(cellGrace) {
			continue
		}
		for j := len(cp.c) - 1; j >= 0; j-- {
			if cp.c[j].Load() == nil {
				continue
			}
			if o := cp.c[j].Swap(nil); o != nil {
				rt.tracer.Emit(id, trace.KCellSteal, uint64(slot))
				return o
			}
		}
	}
	return nil
}

// offerTask makes o, an offer thread id claimed from a cell, the task
// it stands for, through newTask and registerWith (the claimer is not
// the parent's body thread, so the task is counted in its parent's
// alive atomically), and then books the claim: the offer's queued count
// is taken on id's line, and the parent count its push made is dropped
// as a child's completion drops it, after the task raised its own, so
// the parent cannot complete in between. With arm set, id's bypass slot
// is armed around the registration and the task comes straight back
// for the caller to run, unless a hand-off gate sends it to the
// scheduler (an aborted scope drains there); without, it is queued.
// Registration only reads the parent's attribute line and never its
// dependency domain (an offer is access-free), so it is sound on any
// thread, also after the parent's body returned.
func (rt *Runtime) offerTask(o *Offer, id int, arm bool) *Task {
	p := o.parent
	t := rt.newTask(p, o.body, nil, id)
	bs := &rt.bypass[id]
	bs.armed = arm
	rt.registerWith(p, nil, t, id)
	t = bs.disarm()
	rt.taken.Add(id, 1)
	p.alive.Add(-1)
	return t
}

// callOffer runs o, an offer the holder of slot id took back from its
// own cells, as a plain call inside its parent, when that parent is the
// task waiting on this thread (its body is helping: Taskwait, or a
// Spawn past the window) and its scope is healthy — no shell,
// registration, qstate claim, release or completion, as for a continued
// node — and records one KNodeOffer (Arg = the node). It reports false,
// touching nothing, for any other offer; the caller makes that a task.
// The offer's counts are dropped before the call, so a Taskwait inside
// it does not wait for itself; the parent's body guard keeps the parent
// from completing meanwhile. A panic that escapes the call fails the
// parent, as runBody's recover fails a task (ctxSlot.recoverBody).
func (rt *Runtime) callOffer(o *Offer, id int) (ran bool) {
	s := &rt.wctx[id]
	p := o.parent
	if p != s.ctx.task || p.sc.abortCause() != nil {
		return false
	}
	rt.taken.Add(id, 1)
	p.alive.Add(-1)
	rt.tracer.Emit(id, trace.KNodeOffer, uint64(o.node))
	defer s.recoverBody(p, p, s.helping)
	ran = true
	o.body(&s.ctx)
	return ran
}

// schedTook books a task that slot id obtained from take out of the
// pending counts — on id's own taken line; a stale promotion
// duplicate counts as taken like any other entry, which is what keeps
// added - taken exact — and claims it for execution: the Swap on qstate
// is what makes a promotion's duplicate queue entry exactly-once — the
// first entry to pop wins the task, later (stale) entries observe
// qstate 0 and dissolve into a nil return. The per-level pending
// decrement uses the queue level the winning Swap observed, which is
// where the increments were moved to, so the counts stay exact under
// concurrent promotion. A recycled-shell entry (the task completed and
// the shell was re-queued for a new incarnation) is indistinguishable
// from a genuine one and harmlessly claims the new incarnation — it is
// ready and queued either way.
func (rt *Runtime) schedTook(t *Task, id int) *Task {
	if t == nil {
		return nil
	}
	rt.taken.Add(id, 1)
	s := t.qstate.Swap(0)
	if s == 0 {
		return nil // stale duplicate left behind by a promotion re-push
	}
	if s > 1 {
		rt.priPending[s-1].v.Add(-1)
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
		if s == 0 || int(s) >= lvl+1 {
			// Not queued (the raise alone suffices: a later schedAdd
			// reads epri) or already ranked at/above the target.
			return true
		}
		if t.qstate.CompareAndSwap(s, int32(lvl+1)) {
			// Move the pending counts to the new level and push the
			// duplicate; counts before Add, Add before wake, as in
			// schedAdd. The new level is raised before the old one is
			// lowered: a concurrent level scan (higherPriPending) may
			// count the task twice, never zero times.
			rt.priPending[lvl].v.Add(1)
			if s > 1 {
				rt.priPending[s-1].v.Add(-1)
			}
			rt.added.Add(worker, 1)
			rt.sched.Add(t, worker)
			rt.wakeWorker()
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

// wakeWorker wakes at most one parked worker; producers call it after
// making work visible (scheduler insertion). With no worker parked — or
// elastic parking disabled — it is a single atomic load: the parked
// count is tested BEFORE the pending count is summed, so a busy pool
// never pays the sum. With someone parked, pending is computed here,
// after the insertion, and handed to the parker's wake-throttle: when
// enough woken-but-not-yet-polling workers already cover the backlog,
// the redundant claim scan is skipped (burst producers would otherwise
// pay one scan per enqueue). pending's over-approximation only makes
// the throttle fire less often.
func (rt *Runtime) wakeWorker() {
	if rt.elastic && rt.parker.Parked() > 0 {
		rt.parker.WakeOne(0, rt.pending())
	}
}

// higherPriPending reports whether any task with a priority level above
// pri is currently queued. It is a conservative best-effort read
// (concurrent Adds and Gets move the counts), used to keep the
// successor bypass from starving queued higher-priority work.
func (rt *Runtime) higherPriPending(pri int8) bool {
	for l := int(pri) + 1; l < sched.PriorityLevels; l++ {
		if rt.priPending[l].v.Load() > 0 {
			return true
		}
	}
	return false
}

// mayHandOff holds the two gates every immediate-successor hand-off
// passes before work of t's scope and effective level runs next on a
// thread without a scheduling decision: the scope is healthy (a
// cancelled scope's tasks drain through the scheduler) and nothing of a
// higher level is queued (the priority policy must order the two). The
// ready callback asks it about the task it would park in the bypass
// slot, and ContinueNode and OfferNode about the running task itself.
func (rt *Runtime) mayHandOff(t *Task) bool {
	return t.sc.abortCause() == nil && !rt.higherPriPending(int8(t.epri.Load()))
}
