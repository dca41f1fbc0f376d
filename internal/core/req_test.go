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

// reqConfigs covers both SubmitReq paths: inline serving (the default
// two slots) and the pure dispatch path (inline serving disabled).
func reqConfigs() []struct {
	name string
	cfg  Config
} {
	inline := testConfig(VariantOptimized)
	dispatch := testConfig(VariantOptimized)
	dispatch.ServeSlots = -1
	return []struct {
		name string
		cfg  Config
	}{{"inline", inline}, {"dispatch", dispatch}}
}

func TestSubmitReqCycles(t *testing.T) {
	for _, tc := range reqConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(tc.cfg)
			defer rt.Close()
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
	for _, tc := range reqConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(tc.cfg)
			defer rt.Close()
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
	for _, tc := range reqConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(tc.cfg)
			defer rt.Close()
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
			// The latch is reusable after a deadline, and stale timers of
			// earlier cycles must never cancel later ones: run trivial
			// cycles well past the old deadline's firing point.
			deadlineAt := time.Now().Add(5 * time.Millisecond)
			for time.Now().Before(deadlineAt.Add(5 * time.Millisecond)) {
				rt.SubmitReq(context.Background(), r, 5*time.Millisecond, func(c *Ctx) {})
				if err := r.Wait(); err != nil {
					t.Fatalf("reuse cycle after deadline: %v", err)
				}
			}
		})
	}
}

// TestSubmitReqStorm hammers SubmitReq from more goroutines than there
// are inline-serving slots, so submissions race over slot acquisition
// and fall back to the dispatch path under contention, with stale
// deadline timers constantly firing into later cycles. Each goroutine
// verifies every successful cycle's dependency chain exactly.
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
