// Package event provides the building blocks of the runtime's external
// event subsystem (the Nanos6 "external events" API): the mechanism
// that lets a task's dependency release and completion be deferred past
// its body's return until out-of-band completions — network callbacks,
// timers, channel readers — fire from arbitrary goroutines, while the
// worker that ran the body goes straight back to the scheduler.
//
// The package is deliberately core-agnostic (it knows nothing about
// tasks); it contributes two primitives the core wires together:
//
//   - Wheel: a deadline-ordered timer queue. Idle runtime threads poll
//     it (Poll), so a due timer fires on a thread that is already awake
//     and its completion runs on that thread's index; one idle worker,
//     the timer owner, stays up while a deadline is near (Hold); and one
//     lazily started goroutine sleeping until the earliest deadline
//     fires what no thread polls. Timer-deferred completions
//     (Ctx.After) cost no worker and no per-timer goroutine.
//   - Slots: a small pool of exclusive thread indices, the runtime's
//     inline-serving submitters' (see core/topology.go).
package event

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Horizon is how near the earliest deadline must be for an idle worker
// to stay up as the timer owner instead of parking (Hold). A thread that
// sleeps wakes late next to a busy-yielding goroutine — a 1 ms
// time.Timer fired at p90 4.8 ms on a two-core host — so a
// timer is only on time if somebody awake polls for it; the horizon
// bounds what that costs: one core, for at most this long before each
// deadline. Awake is not enough: a goroutine that yields its P next to
// busy ones can get it back a millisecond or more later, so the owner
// holds its P while it polls and yields only once per idle budget (the
// runtime's worker loop).
const Horizon = time.Millisecond

// NoThread is the thread index a Completer receives when the fallback
// goroutine, which owns no runtime index, fires its timer.
const NoThread = -1

// never is the published minimum of an empty queue.
const never = math.MaxInt64

// Completer is what a timer completes after its callback — the runtime's
// event counter — told which thread index the timer fired on: the
// polling thread's, or NoThread.
type Completer interface{ Complete(id int) }

// timer is one queue entry: at its absolute deadline fn runs (if set),
// then c completes (if set). Keeping the counter beside the callback,
// rather than in a closure around it, is what lets the runtime arm a
// timer without allocating.
type timer struct {
	at int64
	fn func()
	c  Completer
}

// fire runs the entry on thread id.
func (t *timer) fire(id int) {
	if t.fn != nil {
		t.fn()
	}
	if t.c != nil {
		t.c.Complete(id)
	}
}

// epoch anchors the queue's monotonic clock.
var epoch = time.Now()

// monotonic is the queue's clock: nanoseconds since epoch.
func monotonic() int64 { return int64(time.Since(epoch)) }

// Wheel is a min-heap of absolute monotonic deadlines (the name is kept
// from the hashed timing wheel it replaced). A timer fires exactly when
// now ≥ its deadline: never early, never rounded to a tick, and late
// only by how long it takes somebody to look. Three parties look:
//
//   - Poll, from an idle runtime thread: one atomic load of the
//     earliest deadline when nothing is armed, and otherwise fires every
//     due entry on the caller's index.
//   - The timer owner: at most one idle worker, claimed with one CAS in
//     Hold, stays up polling while the earliest deadline is within
//     Horizon instead of parking.
//   - The fallback goroutine: one time.Timer reset to the earliest
//     deadline, idle while nothing is armed. It fires what no thread
//     polled — a fully parked pool, or a pool busy with long bodies.
//     While an owner exists it waits Horizon past each deadline first,
//     so it does not wake for every timer the owner fires on time.
//
// Callbacks run outside the queue lock (they may arm further timers)
// and on whichever thread fires them, so they must be brief and never
// block.
type Wheel struct {
	// next is the earliest armed deadline (never when empty), published
	// under mu after every push and pop; owner is the timer owner's
	// thread index + 1 (0: none). Both are read by every idle poll, so
	// they are padded away from the lock every arm and pop writes.
	next  atomic.Int64
	owner atomic.Int32
	_     [52]byte

	now func() int64 // the clock; tests inject one

	mu      sync.Mutex
	h       []timer // binary min-heap on at
	fbAt    int64   // when the fallback goroutine wakes next; never while idle
	started bool
	stopped bool
	kick    chan struct{}
	stop    chan struct{}
	wg      sync.WaitGroup
}

// NewWheel returns an empty timer queue. Both arguments are ignored —
// they sized the hashed wheel this queue replaced, and the signature is
// kept for existing callers. The fallback goroutine starts on the first
// timer.
func NewWheel(time.Duration, int) *Wheel {
	w := &Wheel{now: monotonic, fbAt: never, kick: make(chan struct{}, 1)}
	w.next.Store(never)
	return w
}

// After schedules fn to run no earlier than d from now.
func (w *Wheel) After(d time.Duration, fn func()) { w.Arm(d, fn, nil) }

// Arm schedules fn (if non-nil) and then c.Complete (if c is non-nil) to
// run no earlier than d from now, on whichever thread fires the timer.
// If the queue has already been stopped, both run on a fresh goroutine
// instead — the runtime only stops the queue after quiescence, so this
// path exists for shutdown races, not for steady state.
func (w *Wheel) Arm(d time.Duration, fn func(), c Completer) {
	now := w.now()
	// Clamped so that at + Horizon cannot overflow.
	at := now + min(max(int64(d), 0), never-int64(Horizon)-now)
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		t := timer{fn: fn, c: c}
		go t.fire(NoThread)
		return
	}
	if !w.started {
		w.started = true
		w.stop = make(chan struct{})
		w.wg.Add(1)
		go w.run()
	}
	w.push(timer{at: at, fn: fn, c: c})
	kick := at+w.slack() < w.fbAt
	w.mu.Unlock()
	if kick {
		w.nudge()
	}
}

// Poll fires, on thread index id, every timer whose deadline has passed,
// and reports whether it fired any. When nothing is armed it costs one
// atomic load.
func (w *Wheel) Poll(id int) bool {
	if w.next.Load() == never {
		return false
	}
	return w.fireDue(id, 0)
}

// Hold reports whether idle worker id should stay up as the timer owner
// instead of parking: the earliest deadline is within Horizon and id
// already owns the queue or claims it with one CAS. When nothing is that
// near, an owner steps down, and the fallback goroutine is nudged to
// re-arm at the earliest deadline itself rather than Horizon after it,
// before the worker parks.
func (w *Wheel) Hold(id int) bool {
	me := int32(id) + 1
	if at := w.next.Load(); at != never && at-w.now() < int64(Horizon) {
		o := w.owner.Load()
		return o == me || o == 0 && w.owner.CompareAndSwap(0, me)
	}
	if w.owner.Load() == me && w.owner.CompareAndSwap(me, 0) {
		w.nudge()
	}
	return false
}

// slack is how long past a deadline the fallback goroutine leaves a
// timer to the owner.
func (w *Wheel) slack() int64 {
	if w.owner.Load() != 0 {
		return int64(Horizon)
	}
	return 0
}

// nudge wakes the fallback goroutine to recompute its deadline.
func (w *Wheel) nudge() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// fireDue pops and fires, one at a time and outside the lock, every
// entry due at least slack ago, on thread id.
func (w *Wheel) fireDue(id int, slack int64) bool {
	fired := false
	for {
		due := w.now() - slack
		if w.next.Load() > due {
			return fired
		}
		w.mu.Lock()
		if len(w.h) == 0 || w.h[0].at > due {
			w.mu.Unlock()
			return fired
		}
		t := w.pop()
		w.mu.Unlock()
		t.fire(id)
		fired = true
	}
}

// run is the fallback goroutine: fire what is overdue, then sleep until
// the earliest deadline (plus the owner's slack) or a nudge.
func (w *Wheel) run() {
	defer w.wg.Done()
	tm := time.NewTimer(time.Duration(never))
	defer tm.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-w.kick:
		case <-tm.C:
		}
		slack := w.slack()
		w.fireDue(NoThread, slack)
		w.mu.Lock()
		w.fbAt = never
		if len(w.h) > 0 {
			w.fbAt = w.h[0].at + slack
		}
		at := w.fbAt
		w.mu.Unlock()
		if at == never {
			tm.Stop()
		} else {
			tm.Reset(time.Duration(at - w.now()))
		}
	}
}

// push inserts t and republishes the minimum. The caller holds w.mu.
// The sift is written out because container/heap boxes every entry.
func (w *Wheel) push(t timer) {
	w.h = append(w.h, t)
	h := w.h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].at <= t.at {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = t
	w.next.Store(h[0].at)
}

// pop removes and returns the earliest entry and republishes the
// minimum. The caller holds w.mu and has checked the heap is non-empty.
func (w *Wheel) pop() timer {
	h := w.h
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = timer{} // drop the references for the collector
	h = h[:n]
	w.h = h
	if n == 0 {
		w.next.Store(never)
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].at < h[c].at {
			c++
		}
		if last.at <= h[c].at {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	w.next.Store(h[0].at)
	return top
}

// Stop terminates the fallback goroutine and waits for it to exit.
// Timers still queued are dropped — the runtime calls Stop only after
// every task (and therefore every pending event) has drained. Stop is
// idempotent.
func (w *Wheel) Stop() {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	w.stopped = true
	started := w.started
	w.mu.Unlock()
	if started {
		close(w.stop)
		w.wg.Wait()
	}
}
