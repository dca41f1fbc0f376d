package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

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

// TestWheelFiresOnWorkerIndex: a one-worker chain whose producer parks on
// After(1ms). The idle worker stays up as the timer owner and fires the
// timer itself, so the event's release — KEventFire — is recorded on
// worker 0's index, not on a completer slot borrowed by a timer
// goroutine, and the successor runs right behind it.
func TestWheelFiresOnWorkerIndex(t *testing.T) {
	rt := New(Config{Workers: 1, IdleSpin: 16, TraceCapacity: 1 << 12})
	const chains = 5
	for i := 0; i < chains; i++ {
		var x int
		ran := false
		if err := rt.Run(func(c *Ctx) {
			c.Spawn(func(c *Ctx) { c.After(time.Millisecond) }, Out(&x))
			c.Spawn(func(*Ctx) { ran = true }, In(&x))
		}); err != nil {
			t.Fatal(err)
		}
		if !ran {
			t.Fatal("the successor of the timer-held task never ran")
		}
	}
	rt.Close()
	ids := eventFires(rt)
	if len(ids) != chains {
		t.Fatalf("%d event fires recorded, want %d", len(ids), chains)
	}
	for _, id := range ids {
		if id != 0 {
			t.Fatalf("a timer fired on thread %d, want worker 0 (fires: %v)", id, ids)
		}
	}
}

// TestWheelOwnerBound: four busy workers, a timer armed 1.5 ms ahead, and
// the workers all go idle 0.7 ms later, with the deadline inside
// event.Horizon. When the timer fires, at most one worker is unparked —
// the timer owner, which stayed up and fires it on its own index.
func TestWheelOwnerBound(t *testing.T) {
	rt := New(Config{Workers: 4, IdleSpin: 64, TraceCapacity: 1 << 12})
	waitStats(t, rt, "idle pool never fully parked", func(s Stats) bool {
		return s.Parked == 4
	})
	var started atomic.Int32
	var armedAt atomic.Int64
	upAtFire := -1
	release := make(chan struct{})
	h := rt.Submit(func(c *Ctx) (any, error) {
		// Each child holds a worker until release, so all four are busy.
		for i := 0; i < 4; i++ {
			c.Spawn(func(c *Ctx) {
				if i == 0 {
					c.AfterFunc(1500*time.Microsecond, func() {
						upAtFire = 4 - rt.Stats().Parked
					})
					armedAt.Store(NowNS())
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
	for NowNS()-armedAt.Load() < int64(700*time.Microsecond) {
		runtime.Gosched()
	}
	late := NowNS()-armedAt.Load() > int64(1200*time.Microsecond)
	close(release)
	if _, err := h.Wait(nil); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	if late {
		t.Skip("the pool went idle too close to the deadline for the owner to claim it")
	}
	if upAtFire > 1 {
		t.Fatalf("%d workers unparked when the timer fired, want at most 1", upAtFire)
	}
	ids := eventFires(rt)
	if len(ids) != 1 || ids[0] >= 4 {
		t.Fatalf("event fires on threads %v, want one on a worker index", ids)
	}
}
