package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/deps"
)

func loopTestRT(t *testing.T, workers int) *Runtime {
	t.Helper()
	rt := New(Config{Workers: workers, NUMANodes: 1})
	t.Cleanup(rt.Close)
	return rt
}

// waitQuiescent polls until every task of rt has fully completed, so
// tests can assert on the sharded live counter deterministically.
func waitQuiescent(t *testing.T, rt *Runtime) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for rt.LiveTasks() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("runtime not quiescent: %d live tasks", rt.LiveTasks())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLoopRunsEveryIterationExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rt := loopTestRT(t, workers)
		const n = 10000
		hits := make([]atomic.Int32, n)
		err := runLoop(rt, 0, n, 0, func(_ *Ctx, lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: runLoop: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: iteration %d ran %d times", workers, i, got)
			}
		}
		waitQuiescent(t, rt)
	}
}

func TestLoopEmptyRange(t *testing.T) {
	rt := loopTestRT(t, 2)
	var calls atomic.Int32
	body := func(*Ctx, int, int) { calls.Add(1) }
	if err := runLoop(rt, 5, 5, 0, body); err != nil {
		t.Fatalf("empty range: %v", err)
	}
	if err := runLoop(rt, 7, 3, 0, body); err != nil {
		t.Fatalf("inverted range: %v", err)
	}
	if got := calls.Load(); got != 0 {
		t.Fatalf("body called %d times on empty/inverted ranges", got)
	}
	waitQuiescent(t, rt)
}

func TestLoopGrainLargerThanRange(t *testing.T) {
	rt := loopTestRT(t, 4)
	var chunks atomic.Int32
	var span atomic.Int64
	err := runLoop(rt, 3, 10, 100, func(_ *Ctx, lo, hi int) {
		chunks.Add(1)
		span.Add(int64(hi - lo))
		if lo != 3 || hi != 10 {
			t.Errorf("chunk [%d,%d), want the whole range [3,10)", lo, hi)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if chunks.Load() != 1 || span.Load() != 7 {
		t.Fatalf("got %d chunks covering %d iterations, want 1 chunk of 7", chunks.Load(), span.Load())
	}
}

func TestLoopExplicitGrainBoundsChunks(t *testing.T) {
	rt := loopTestRT(t, 4)
	const n, grain = 1000, 64
	var covered atomic.Int64
	err := runLoop(rt, 0, n, grain, func(_ *Ctx, lo, hi int) {
		if hi-lo > grain {
			t.Errorf("chunk [%d,%d) exceeds grain %d", lo, hi, grain)
		}
		covered.Add(int64(hi - lo))
	})
	if err != nil {
		t.Fatal(err)
	}
	if covered.Load() != n {
		t.Fatalf("chunks covered %d of %d iterations", covered.Load(), n)
	}
}

// TestLoopOrdersWithDependencies checks both directions of a loop's
// dependency chain: the loop waits for a predecessor writing its input,
// and a successor reading the loop's output waits for EVERY chunk (the
// loop completes only when all chunks drain).
func TestLoopOrdersWithDependencies(t *testing.T) {
	rt := loopTestRT(t, 4)
	const n = 5000
	data := make([]float64, n)
	var sum float64
	err := rt.Run(func(c *Ctx) {
		c.Spawn(func(*Ctx) {
			for i := range data {
				data[i] = 1
			}
		}, Out(&data[0]))
		c.Loop(0, n, 0, func(_ *Ctx, lo, hi int) {
			for i := lo; i < hi; i++ {
				data[i] *= 2
			}
		}, InOut(&data[0]))
		c.Spawn(func(*Ctx) {
			s := 0.0
			for i := range data {
				s += data[i]
			}
			sum = s
		}, In(&data[0]))
		c.Taskwait()
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 2*n {
		t.Fatalf("successor saw sum %v, want %v (chunks escaped the loop's release)", sum, 2*n)
	}
}

func TestLoopCancellationMidLoop(t *testing.T) {
	rt := loopTestRT(t, 4)
	const n = 100000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var executed atomic.Int64
	h := rt.SubmitLoop(ctx, 0, n, 16, func(_ *Ctx, lo, hi int) {
		if executed.Add(int64(hi-lo)) > n/10 {
			cancel()
		}
	})
	err := h.Wait(nil)
	if !errors.Is(err, ErrTaskSkipped) {
		t.Fatalf("err = %v, want ErrTaskSkipped", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the cancellation cause wrapped", err)
	}
	if got := executed.Load(); got >= n {
		t.Fatalf("all %d iterations ran despite mid-loop cancellation", got)
	}
	// Every chunk resolved: the runtime drains to zero live tasks.
	waitQuiescent(t, rt)
}

func TestLoopCancelledBeforeStart(t *testing.T) {
	rt := loopTestRT(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int32
	h := rt.SubmitLoop(ctx, 0, 1000, 0, func(*Ctx, int, int) { calls.Add(1) })
	err := h.Wait(nil)
	if !errors.Is(err, ErrTaskSkipped) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrTaskSkipped wrapping context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Fatal("chunks executed under a pre-cancelled context")
	}
	waitQuiescent(t, rt)
}

func TestLoopChunkPanicFailsScope(t *testing.T) {
	rt := loopTestRT(t, 4)
	err := runLoop(rt, 0, 1000, 8, func(_ *Ctx, lo, hi int) {
		if lo <= 500 && 500 < hi {
			panic("chunk exploded")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	waitQuiescent(t, rt)
}

// TestLoopSubmitLoopChunkErrorUnderCollectAll: a chunk panic must
// surface through the loop's own Handle even under CollectAll (no scope
// abort) and even when the failing chunk executed under a steal
// descriptor, which has no handle of its own.
func TestLoopSubmitLoopChunkErrorUnderCollectAll(t *testing.T) {
	rt := New(Config{Workers: 4, NUMANodes: 1, OnError: CollectAll})
	defer rt.Close()
	h := rt.SubmitLoop(context.Background(), 0, 10000, 8, func(_ *Ctx, lo, hi int) {
		if lo <= 7777 && 7777 < hi {
			panic("chunk exploded")
		}
	})
	var pe *PanicError
	if err := h.Wait(nil); !errors.As(err, &pe) {
		t.Fatalf("loop handle err = %v, want *PanicError", err)
	}
	waitQuiescent(t, rt)
}

func TestLoopNestedInsideTaskwait(t *testing.T) {
	rt := loopTestRT(t, 4)
	const n = 2000
	hits := make([]atomic.Int32, n)
	var after atomic.Bool
	err := rt.Run(func(c *Ctx) {
		c.Loop(0, n, 0, func(_ *Ctx, lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		c.Taskwait()
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Errorf("iteration %d ran %d times before Taskwait returned", i, hits[i].Load())
				break
			}
		}
		after.Store(true)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !after.Load() {
		t.Fatal("root body never passed its Taskwait")
	}
}

// TestLoopNestedInsideChunk spawns a child loop from a chunk body: the
// outer loop must not complete before the inner one.
func TestLoopNestedInsideChunk(t *testing.T) {
	rt := loopTestRT(t, 4)
	const outer, inner = 64, 128
	var total atomic.Int64
	err := runLoop(rt, 0, outer, 4, func(c *Ctx, lo, hi int) {
		c.Loop(0, inner, 0, func(_ *Ctx, ilo, ihi int) {
			total.Add(int64(ihi - ilo))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := total.Load(); got != outer/4*inner {
		// outer/4 chunks at grain 4... the chunk count depends on
		// claiming; count iterations instead.
		t.Logf("chunked as %d total inner iterations", got)
	}
	if got := total.Load(); got%inner != 0 || got == 0 {
		t.Fatalf("inner loops ran %d iterations, want a positive multiple of %d", got, inner)
	}
	waitQuiescent(t, rt)
}

// TestLoopReductionMatchesSerial runs the RedSpec/ReductionBuffer path
// through a taskloop and checks the combined result against the serial
// sum (integer-valued data keeps float64 addition exact).
func TestLoopReductionMatchesSerial(t *testing.T) {
	for _, cfg := range []Config{
		{Workers: 4, NUMANodes: 1},
		{Workers: 4, NUMANodes: 1, Deps: DepsLocked},
	} {
		rt := New(cfg)
		const n = 50000
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i % 9)
		}
		var result, want float64
		for i := range x {
			want += x[i]
		}
		err := rt.Run(func(c *Ctx) {
			c.Loop(0, n, 0, func(cc *Ctx, lo, hi int) {
				acc := cc.ReductionBuffer(&result)
				s := 0.0
				for i := lo; i < hi; i++ {
					s += x[i]
				}
				acc[0] += s
			}, RedSpec(&result, 1, deps.OpSum))
			c.Taskwait()
		})
		if err != nil {
			t.Fatalf("%s: %v", rt.DepsName(), err)
		}
		if result != want {
			t.Fatalf("%s: reduction = %v, want %v", rt.DepsName(), result, want)
		}
		rt.Close()
	}
}

// TestLoopOnEverySchedulerKind runs a loop+reduction on each scheduler
// design. Steal descriptors are ordinary tasks, so each design's own
// Add path (and, for the blocking scheduler, its Signal) must deliver
// them to idle workers.
func TestLoopOnEverySchedulerKind(t *testing.T) {
	for _, kind := range []SchedulerKind{
		SchedSyncDTLock, SchedCentralPTLock, SchedBlocking, SchedWorkStealing,
	} {
		rt := New(Config{Workers: 4, NUMANodes: 1, Scheduler: kind})
		const n = 20000
		var covered atomic.Int64
		err := runLoop(rt, 0, n, 64, func(_ *Ctx, lo, hi int) {
			covered.Add(int64(hi - lo))
		})
		if err != nil {
			t.Fatalf("%s: %v", rt.SchedulerName(), err)
		}
		if covered.Load() != n {
			t.Fatalf("%s: covered %d of %d iterations", rt.SchedulerName(), covered.Load(), n)
		}
		rt.Close()
	}
}

// TestLoopManyConcurrentLoops submits loops from several goroutines at
// once, exercising concurrent recruitment through the scheduler.
func TestLoopManyConcurrentLoops(t *testing.T) {
	rt := loopTestRT(t, 4)
	const loops, n = 8, 4000
	done := make(chan error, loops)
	counts := make([]atomic.Int64, loops)
	for l := 0; l < loops; l++ {
		go func(l int) {
			done <- runLoop(rt, 0, n, 0, func(_ *Ctx, lo, hi int) {
				counts[l].Add(int64(hi - lo))
			})
		}(l)
	}
	for l := 0; l < loops; l++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for l := range counts {
		if got := counts[l].Load(); got != n {
			t.Fatalf("loop %d covered %d of %d iterations", l, got, n)
		}
	}
	waitQuiescent(t, rt)
}

// TestLoopSubmitLoopHandle resolves a root loop through its Handle,
// after every iteration has run.
func TestLoopSubmitLoopHandle(t *testing.T) {
	rt := loopTestRT(t, 2)
	var total atomic.Int64
	h := rt.SubmitLoop(context.Background(), 0, 1000, 0, func(_ *Ctx, lo, hi int) {
		total.Add(int64(hi - lo))
	})
	if err := h.Wait(nil); err != nil {
		t.Fatal(err)
	}
	if total.Load() != 1000 {
		t.Fatalf("loop covered %d iterations, want 1000", total.Load())
	}
}
