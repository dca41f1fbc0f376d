package core

import (
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
