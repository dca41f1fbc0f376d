package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/event"
	"repro/internal/trace"
)

// eventFires returns the thread index of every KEventFire in rt's trace;
// rt must be closed.
func eventFires(rt *Runtime) []int32 {
	var ids []int32
	for _, evs := range rt.Tracer().Snapshot().PerCore {
		for _, e := range evs {
			if e.Kind == trace.KEventFire {
				ids = append(ids, e.Worker)
			}
		}
	}
	return ids
}

// nearKeeper keeps a deadline inside event.Horizon on a runtime's timer
// queue until stop: one timer, re-armed half a horizon ahead by whichever
// thread fires it. While it runs, an idle worker that claimed the timer
// ownership keeps it, and the fallback goroutine leaves every timer to
// that owner until a horizon past its deadline — so a timer fired off the
// worker indices is one the owner did not poll for a whole horizon.
type nearKeeper struct {
	rt       *Runtime
	stopped  atomic.Bool
	onWorker atomic.Int32 // the keeper's latest fires in a row on a worker index
	offWork  atomic.Int32 // the keeper's fires off the worker indices
}

func keepNear(rt *Runtime) *nearKeeper {
	k := &nearKeeper{rt: rt}
	k.arm()
	return k
}

func (k *nearKeeper) arm() { k.rt.wheel.Arm(event.Horizon/2, nil, k) }

func (k *nearKeeper) stop() { k.stopped.Store(true) }

// Complete implements event.Completer.
func (k *nearKeeper) Complete(id int) {
	if id >= 0 && id < k.rt.cfg.Workers {
		k.onWorker.Add(1)
	} else {
		k.onWorker.Store(0)
		k.offWork.Add(1)
	}
	if !k.stopped.Load() {
		k.arm()
	}
}

// waitOwned waits until the keeper fired twice in a row on a worker
// index: that worker stayed up and idle for half a horizon, far past its
// spin budget, which only the timer owner does.
func (k *nearKeeper) waitOwned(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for k.onWorker.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no idle worker took the timer ownership")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestWheelFiresOnWorkerIndex: a one-worker chain whose producer parks on
// a 1 ms timer. The idle worker stays up as the timer owner and fires the
// timer itself, so the event's release — KEventFire — is recorded on
// worker 0's index, not on a root-shard lease borrowed by a timer
// goroutine, and the successor runs right behind it. A keeper holds a
// deadline near throughout, so the worker owns the queue before the first
// chain arms its timer; a fire off worker 0 is excused only by a timer
// that fired a horizon or more late, when the host did not run the owner.
func TestWheelFiresOnWorkerIndex(t *testing.T) {
	rt := newSpin(Config{Workers: 1, TraceCapacity: 1 << 12}, 16)
	k := keepNear(rt)
	if err := rt.Run(func(*Ctx) {}); err != nil { // wake the worker
		t.Fatal(err)
	}
	k.waitOwned(t)
	const chains = 5
	overdue := 0
	for i := 0; i < chains; i++ {
		var x int
		ran := false
		var lateBy time.Duration
		if err := rt.Run(func(c *Ctx) {
			c.Spawn(func(c *Ctx) {
				due := NowNS() + int64(time.Millisecond)
				c.AfterFunc(time.Millisecond, func() { lateBy = time.Duration(NowNS() - due) })
			}, Out(&x))
			c.Spawn(func(*Ctx) { ran = true }, In(&x))
		}); err != nil {
			t.Fatal(err)
		}
		if !ran {
			t.Fatal("the successor of the timer-held task never ran")
		}
		if lateBy >= event.Horizon {
			overdue++
		}
	}
	k.stop()
	rt.Close()
	ids := eventFires(rt)
	if len(ids) != chains {
		t.Fatalf("%d event fires recorded, want %d", len(ids), chains)
	}
	off := 0
	for _, id := range ids {
		if id != 0 {
			off++
		}
	}
	if off > overdue {
		t.Fatalf("%d timers fired off worker 0 and %d a horizon late, want every fire on worker 0 (fires: %v)", off, overdue, ids)
	}
	if off > 0 {
		t.Skipf("%d of %d timers fired a horizon past their deadline: the host did not run the owner (fires: %v)", overdue, chains, ids)
	}
}

// TestWheelOwnerBound: four busy workers go idle together while a
// deadline is inside event.Horizon. Exactly one stays up — the timer
// owner — and the other three park; when a timer comes due, at most one
// worker is unparked and the owner fires it on its own index. A keeper
// holds the deadline near however long the host takes to let the pool
// settle; the timer is checked only if it came due after the pool settled
// and was not excused by firing a horizon late.
func TestWheelOwnerBound(t *testing.T) {
	rt := newSpin(Config{Workers: 4, TraceCapacity: 1 << 12}, 64)
	waitStats(t, rt, "idle pool never fully parked", func(s Stats) bool {
		return s.Parked == 4
	})
	const fireAfter = 20 * time.Millisecond
	var started atomic.Int32
	var due, firedAt int64
	upAtFire := -1
	release := make(chan struct{})
	h := submitAny(rt, func(c *Ctx) (any, error) {
		// Each child holds a worker until release, so all four are busy.
		for i := 0; i < 4; i++ {
			c.Spawn(func(c *Ctx) {
				if i == 0 {
					due = NowNS() + int64(fireAfter)
					c.AfterFunc(fireAfter, func() {
						upAtFire = 4 - rt.Stats().Parked
						firedAt = NowNS()
					})
				}
				started.Add(1)
				<-release
			})
		}
		return nil, nil
	})
	for started.Load() < 4 {
		runtime.Gosched()
	}
	k := keepNear(rt)
	close(release)
	waitStats(t, rt, "more workers than the timer owner stayed up", func(s Stats) bool {
		return s.Parked == 3
	})
	settledAt := NowNS()
	if _, err := h.Wait(nil); err != nil {
		t.Fatal(err)
	}
	k.stop()
	rt.Close()
	if settledAt > firedAt {
		t.Skip("the host let the pool settle only after the timer fired")
	}
	if upAtFire > 1 {
		t.Fatalf("%d workers unparked when the timer fired, want at most 1", upAtFire)
	}
	ids := eventFires(rt)
	if len(ids) == 1 && ids[0] >= 4 && time.Duration(firedAt-due) >= event.Horizon {
		t.Skip("the timer fired a horizon past its deadline: the host did not run the owner")
	}
	if len(ids) != 1 || ids[0] >= 4 {
		t.Fatalf("event fires on threads %v, want one on a worker index", ids)
	}
}

// TestWheelOwnerBesideYielder: the timer owner next to a goroutine that
// loops on runtime.Gosched on the other P. An owner that yields on
// every idle poll gets its P back, now and then, a millisecond or more
// later, and its timers fire that late; an owner that holds its P fires
// every one on worker 0 within event.Horizon of its deadline.
//
// A round is a fresh one-worker runtime and a hundred 1 ms AfterFunc
// chains, and the test passes on the first round in which every fire
// met that. A fire off worker 0 in a round with no timer a horizon late
// fails it at once. A round with one — a chain's, or the keeper's, whose
// late fire off the worker lets the owner step down — is the host not
// running the owner, as in TestWheelFiresOnWorkerIndex, and if every
// round has one the test skips.
func TestWheelOwnerBesideYielder(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs a second P for the yielding goroutine")
	}
	var stop atomic.Bool
	yielded := make(chan struct{})
	defer func() {
		stop.Store(true)
		<-yielded
	}()
	go func() {
		defer close(yielded)
		for !stop.Load() {
			runtime.Gosched()
		}
	}()
	const rounds, chains = 5, 100
	var excused []string
	for range rounds {
		late, off, keeperOff := ownerRound(t, chains)
		switch {
		case late == 0 && keeperOff == 0 && off > 0:
			t.Fatalf("%d of %d timers fired off worker 0 with none a horizon late, want every one on worker 0", off, chains)
		case late == 0 && keeperOff == 0:
			return
		}
		excused = append(excused, fmt.Sprintf("%d late, %d off worker 0, keeper %d off", late, off, keeperOff))
	}
	t.Skipf("every round had a timer a horizon past its deadline (%v): the host did not run the owner", excused)
}

// ownerRound runs one round of TestWheelOwnerBesideYielder: the chains
// whose timer fired a horizon or more late, the fires off worker 0, and
// the keeper's fires off the worker.
func ownerRound(t *testing.T, chains int) (late, off, keeperOff int) {
	t.Helper()
	// A lowered budget: before it owns the queue the worker yields on
	// every poll past the first 128, and next to the yielder a full
	// 1 024 of those can outlast the keeper's half horizon, whose fire
	// restarts the count, so the worker would never reach Hold.
	rt := newSpin(Config{Workers: 1, TraceCapacity: 1 << 14}, 64)
	k := keepNear(rt)
	if err := rt.Run(func(*Ctx) {}); err != nil { // wake the worker
		t.Fatal(err)
	}
	k.waitOwned(t)
	k.offWork.Store(0)
	for range chains {
		var x int
		var lateBy time.Duration
		if err := rt.Run(func(c *Ctx) {
			c.Spawn(func(c *Ctx) {
				due := NowNS() + int64(time.Millisecond)
				c.AfterFunc(time.Millisecond, func() { lateBy = time.Duration(NowNS() - due) })
			}, Out(&x))
			c.Spawn(func(*Ctx) {}, In(&x))
		}); err != nil {
			t.Fatal(err)
		}
		if lateBy >= event.Horizon {
			late++
		}
	}
	k.stop()
	keeperOff = int(k.offWork.Load())
	rt.Close()
	ids := eventFires(rt)
	if len(ids) != chains {
		t.Fatalf("%d event fires recorded, want %d", len(ids), chains)
	}
	for _, id := range ids {
		if id != 0 {
			off++
		}
	}
	return late, off, keeperOff
}
