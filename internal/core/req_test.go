package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// reqPaths covers both SubmitReq paths: inline serving, and the
// dispatch path it falls back to while every serve slot is held.
var reqPaths = []struct {
	name     string
	dispatch bool
}{{"inline", false}, {"dispatch", true}}

// holdServeSlots takes every inline-serving slot of rt, so SubmitReq
// takes its dispatch path until the returned release runs.
func holdServeSlots(t *testing.T, rt *Runtime) (release func()) {
	t.Helper()
	var held []int
	for s := rt.serveSlots.TryAcquire(); s >= 0; s = rt.serveSlots.TryAcquire() {
		held = append(held, s)
	}
	if len(held) != serveSlots {
		t.Fatalf("held %d serve slots, want %d", len(held), serveSlots)
	}
	return func() {
		for _, s := range held {
			rt.serveSlots.Release(s)
		}
	}
}

func TestSubmitReqCycles(t *testing.T) {
	for _, tc := range reqPaths {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(testConfig(VariantOptimized))
			defer rt.Close()
			if tc.dispatch {
				defer holdServeSlots(t, rt)()
			}
			r := NewReq()
			var sum atomic.Int64
			want := int64(0)
			for cycle := 1; cycle <= 200; cycle++ {
				want += 10 * int64(cycle)
				rt.SubmitReq(context.Background(), r, 0, func(c *Ctx) {
					for i := 0; i < 10; i++ {
						c.Spawn(func(*Ctx) { sum.Add(int64(cycle)) })
					}
					c.Taskwait()
				})
				if err := r.Wait(); err != nil {
					t.Fatalf("cycle %d: Wait: %v", cycle, err)
				}
				if got := sum.Load(); got != want {
					t.Fatalf("cycle %d: sum = %d, want %d", cycle, got, want)
				}
			}
			if rt.LiveTasks() != 0 {
				t.Fatalf("%d live tasks after reuse cycles", rt.LiveTasks())
			}
		})
	}
}

func TestSubmitReqError(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range reqPaths {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(testConfig(VariantOptimized))
			defer rt.Close()
			if tc.dispatch {
				defer holdServeSlots(t, rt)()
			}
			r := NewReq()
			rt.SubmitReq(context.Background(), r, 0, func(c *Ctx) {
				c.Fail(boom)
			})
			if err := r.Wait(); !errors.Is(err, boom) {
				t.Fatalf("Wait = %v, want wrapping %v", err, boom)
			}
			// The error must not leak into the next cycle's fresh scope.
			rt.SubmitReq(context.Background(), r, 0, func(c *Ctx) {})
			if err := r.Wait(); err != nil {
				t.Fatalf("Wait after failed cycle = %v, want nil", err)
			}
		})
	}
}

func TestSubmitReqDeadline(t *testing.T) {
	for _, tc := range reqPaths {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(testConfig(VariantOptimized))
			defer rt.Close()
			if tc.dispatch {
				defer holdServeSlots(t, rt)()
			}
			r := NewReq()
			var x byte
			var ran atomic.Bool
			rt.SubmitReq(context.Background(), r, 2*time.Millisecond, func(c *Ctx) {
				c.Spawn(func(*Ctx) {
					time.Sleep(30 * time.Millisecond)
				}, Out(&x))
				c.Spawn(func(*Ctx) { ran.Store(true) }, In(&x))
				c.Taskwait()
			})
			err := r.Wait()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Wait = %v, want wrapping DeadlineExceeded", err)
			}
			if ran.Load() {
				t.Fatal("dependent of the slow task ran past the deadline")
			}
			// The latch and its recycled scope are reusable after a
			// deadline: later cycles with a deadline that cannot expire
			// succeed.
			for cycle := 0; cycle < 100; cycle++ {
				rt.SubmitReq(context.Background(), r, time.Hour, func(c *Ctx) {})
				if err := r.Wait(); err != nil {
					t.Fatalf("reuse cycle %d after deadline: %v", cycle, err)
				}
			}
		})
	}
}

// expireDeadline moves the request deadline of the running task's scope
// into the past, as if it had passed while the task ran. The task's own
// start ordered every earlier read of it; later readers are ordered by
// the task's release.
func expireDeadline(c *Ctx) { c.task.sc.cancelAt = NowNS() - 1 }

// TestSubmitReqDeadlineAfterFailFast: a FailFast failure that lands
// after the request deadline passed, with nothing having observed the
// deadline yet, is the whole aggregate — the deadline joins it neither
// as its cause nor as a second copy of the failure. The dependent of the
// failed node still drains. The deadline is an hour, so the first child
// always starts before it; once started, the child moves it into the
// past itself — a start gate that does not depend on the clock.
func TestSubmitReqDeadlineAfterFailFast(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range reqPaths {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(testConfig(VariantOptimized))
			defer rt.Close()
			if tc.dispatch {
				defer holdServeSlots(t, rt)()
			}
			r := NewReq()
			var x byte
			var ran atomic.Bool
			rt.SubmitReq(context.Background(), r, time.Hour, func(c *Ctx) {
				c.Spawn(func(c *Ctx) {
					expireDeadline(c)
					c.Fail(boom)
				}, Out(&x))
				c.Spawn(func(*Ctx) { ran.Store(true) }, In(&x))
				c.Taskwait()
			})
			if err := r.Wait(); err == nil || err.Error() != boom.Error() {
				t.Fatalf("Wait = %v, want exactly %v", err, boom)
			}
			if ran.Load() {
				t.Fatal("dependent of the failed node ran")
			}
		})
	}
}

// TestSubmitReqStorm hammers SubmitReq from more goroutines than there
// are inline-serving slots, so submissions race over slot acquisition
// and fall back to the dispatch path under contention, with every
// fourth cycle's deadline short enough to expire under load. Each
// goroutine verifies every successful cycle's dependency chain exactly.
func TestSubmitReqStorm(t *testing.T) {
	rt := New(testConfig(VariantOptimized))
	defer rt.Close()
	const goroutines = 16
	cycles := 150
	if testing.Short() {
		cycles = 40
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := NewReq()
			var stage, resp int64
			for cycle := 1; cycle <= cycles; cycle++ {
				d := time.Duration(0)
				if cycle%4 == 0 {
					d = 500 * time.Microsecond // mostly stale by completion
				}
				stage, resp = 0, 0
				rt.SubmitReq(context.Background(), r, d, func(c *Ctx) {
					c.Spawn(func(*Ctx) { stage = int64(cycle) }, Out(&stage))
					c.Spawn(func(*Ctx) { resp = stage * 2 }, In(&stage), Out(&resp))
					c.Taskwait()
				})
				err := r.Wait()
				switch {
				case err == nil:
					if resp != 2*int64(cycle) {
						errs[g] = fmt.Errorf("cycle %d: resp = %d, want %d", cycle, resp, 2*cycle)
						return
					}
				case errors.Is(err, context.DeadlineExceeded):
					// A genuinely-expired deadline: fine.
				default:
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if rt.LiveTasks() != 0 {
		t.Fatalf("%d live tasks after storm", rt.LiveTasks())
	}
}

// TestSubmitReqDispatchWhenServeSlotsBusy: with every serve slot held,
// a SubmitReq root dispatches through the scheduler to a worker and
// Wait still returns; once a slot frees, the next request is served
// inline again, on a serve-slot index.
func TestSubmitReqDispatchWhenServeSlotsBusy(t *testing.T) {
	rt := New(testConfig(VariantOptimized))
	defer rt.Close()
	r := NewReq()
	ranOn := func() int {
		on := -1
		rt.SubmitReq(context.Background(), r, 0, func(c *Ctx) { on = c.Worker() })
		if err := r.Wait(); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		return on
	}
	release := holdServeSlots(t, rt)
	if on, w := ranOn(), rt.Config().Workers; on < 0 || on >= w {
		t.Fatalf("with every serve slot held the root ran on index %d, want a worker index below %d", on, w)
	}
	release()
	if on, lo := ranOn(), rt.Slots()-serveSlots; on < lo || on >= lo+serveSlots {
		t.Fatalf("after the release the root ran on index %d, want a serve slot in [%d, %d)", on, lo, lo+serveSlots)
	}
}
