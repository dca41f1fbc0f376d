package core

import (
	"repro/internal/deps"
	"repro/internal/sched"
)

// Queue accounting: every scheduler insertion and claim goes through
// schedAdd and schedTook, which keep the pending counts the park/wake
// protocol and the priority gates read.

// pending returns the number of tasks queued in the scheduler (added
// and not yet taken). The read order is load-bearing: taken is
// summed FIRST, then added. Both are monotone and every take follows
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

// schedAdd hands a task to the scheduler, maintaining the per-level
// pending counts for elevated tasks and the elastic pending count.
// Every scheduler insertion must go through it (ready callback,
// commutative re-enqueue) so the counts match what Get can return. The
// queue level is the task's *effective* priority, and it is recorded in
// qstate (as level+1; 0 means not queued) before the insertion so a
// concurrent promotion (promote) can re-rank the entry and move the
// pending counts with it. The order against wakeWorker is the
// lost-wakeup argument's producer half: the slot's added count is
// raised (sequentially consistent) before the parked count is read, so
// a worker concurrently publishing itself as parked either sees
// pending > 0 in its recheck or is seen here.
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

// schedTook books a task that slot id obtained from sched.Get/TryGet
// out of the pending counts — on id's own taken line; a stale promotion
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
// slot, ContinueNode about the running task itself.
func (rt *Runtime) mayHandOff(t *Task) bool {
	return t.sc.abortCause() == nil && !rt.higherPriPending(int8(t.epri.Load()))
}
