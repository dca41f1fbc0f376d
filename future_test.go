package repro_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// TestFutureValue: a root task returns a value consumed through
// Future.Wait, including a nested Go future consumed inside the body.
func TestFutureValue(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()

	f := repro.Submit(rt, func(c *repro.Ctx) (int, error) {
		inner := repro.Go(c, func(*repro.Ctx) (int, error) { return 21, nil })
		c.Taskwait()
		v, err := inner.Wait(nil)
		if err != nil {
			return 0, err
		}
		return v * 2, nil
	})
	v, err := f.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if v != 42 {
		t.Fatalf("v = %d, want 42", v)
	}
}

// TestFutureDependencyOrdering: Submit roots with matching accesses are
// ordered like Run roots; the consumer future observes the producer's
// write.
func TestFutureDependencyOrdering(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()

	var x float64
	repro.Submit(rt, func(*repro.Ctx) (struct{}, error) {
		x = 21
		return struct{}{}, nil
	}, repro.Out(&x))
	f := repro.Submit(rt, func(*repro.Ctx) (float64, error) {
		return x * 2, nil
	}, repro.In(&x))
	v, err := f.Wait(nil)
	if err != nil || v != 42 {
		t.Fatalf("v, err = %v, %v; want 42, nil", v, err)
	}
}

// TestErrorPropagationChain: under the default fail-fast policy, an
// error in the head of a dependency chain drains the dependents without
// executing them, their futures report ErrTaskSkipped wrapping the
// cause, and Run returns the cause.
func TestErrorPropagationChain(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()

	boom := errors.New("boom")
	var x float64
	var bRan, cRan atomic.Bool
	var fb, fc *repro.Future[struct{}]
	err := rt.Run(func(c *repro.Ctx) {
		repro.GoErr(c, func(*repro.Ctx) error { return boom }, repro.Out(&x))
		fb = repro.GoErr(c, func(*repro.Ctx) error { bRan.Store(true); return nil }, repro.InOut(&x))
		fc = repro.GoErr(c, func(*repro.Ctx) error { cRan.Store(true); return nil }, repro.In(&x))
		c.Taskwait()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
	if bRan.Load() || cRan.Load() {
		t.Fatalf("dependent bodies ran (b=%v c=%v) despite fail-fast", bRan.Load(), cRan.Load())
	}
	for i, f := range []*repro.Future[struct{}]{fb, fc} {
		_, ferr := f.Wait(nil)
		if !errors.Is(ferr, repro.ErrTaskSkipped) {
			t.Fatalf("dependent %d error = %v, want ErrTaskSkipped", i, ferr)
		}
		if !errors.Is(ferr, boom) {
			t.Fatalf("dependent %d error = %v, does not wrap cause", i, ferr)
		}
	}
	if n := rt.LiveTasks(); n != 0 {
		t.Fatalf("LiveTasks = %d after drain, want 0", n)
	}
}

// TestCollectAllPolicy: with CollectAll every task runs and the root
// joins all the errors.
func TestCollectAllPolicy(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4), repro.WithErrorPolicy(repro.CollectAll))
	defer rt.Close()

	e1, e2 := errors.New("e1"), errors.New("e2")
	var ran atomic.Int64
	err := rt.Run(func(c *repro.Ctx) {
		repro.GoErr(c, func(*repro.Ctx) error { ran.Add(1); return e1 })
		repro.GoErr(c, func(*repro.Ctx) error { ran.Add(1); return e2 })
		repro.GoErr(c, func(*repro.Ctx) error { ran.Add(1); return nil })
		c.Taskwait()
	})
	if ran.Load() != 3 {
		t.Fatalf("ran = %d, want 3 (collect-all must not drain)", ran.Load())
	}
	if !errors.Is(err, e1) || !errors.Is(err, e2) {
		t.Fatalf("Run error = %v, want join of e1 and e2", err)
	}
}

// TestPanicRecovery: a panicking body becomes a *PanicError on its
// future and at the root instead of crashing the worker pool.
func TestPanicRecovery(t *testing.T) {
	rt := repro.New(repro.WithWorkers(2))
	defer rt.Close()

	f := repro.Submit(rt, func(*repro.Ctx) (int, error) {
		panic("kaboom")
	})
	_, err := f.Wait(nil)
	var pe *repro.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Wait error = %v, want *PanicError", err)
	}
	if fmt.Sprint(pe.Value) != "kaboom" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = {%v, %d stack bytes}", pe.Value, len(pe.Stack))
	}

	// A panic in a plain Spawn body surfaces through Run's error.
	err = rt.Run(func(c *repro.Ctx) {
		c.Spawn(func(*repro.Ctx) { panic("spawn-kaboom") })
		c.Taskwait()
	})
	if !errors.As(err, &pe) || fmt.Sprint(pe.Value) != "spawn-kaboom" {
		t.Fatalf("Run error = %v, want *PanicError{spawn-kaboom}", err)
	}
	// The runtime stays usable after recovered panics.
	if err := rt.Run(func(c *repro.Ctx) {}); err != nil {
		t.Fatalf("Run after panic: %v", err)
	}
}

// TestFutureWaitCancelledContext: Wait with an already-cancelled
// context returns the cancellation cause promptly while the task is
// still pending, and the result stays retrievable afterwards.
func TestFutureWaitCancelledContext(t *testing.T) {
	rt := repro.New(repro.WithWorkers(2))
	defer rt.Close()

	gate := make(chan struct{})
	f := repro.Submit(rt, func(*repro.Ctx) (int, error) {
		<-gate
		return 7, nil
	})

	cancelled, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("caller gave up")
	cancel(cause)
	if _, err := f.Wait(cancelled); !errors.Is(err, cause) {
		t.Fatalf("Wait(cancelled ctx) = %v, want %v", err, cause)
	}

	close(gate)
	v, err := f.Wait(context.Background())
	if err != nil || v != 7 {
		t.Fatalf("Wait after gate = %v, %v; want 7, nil", v, err)
	}
	// A completed task wins over a cancelled context.
	if v, err := f.Wait(cancelled); err != nil || v != 7 {
		t.Fatalf("Wait(cancelled ctx, done task) = %v, %v; want 7, nil", v, err)
	}
}

// TestFutureDoneLazy: Done asked before completion returns the one
// channel later closed at completion; Done asked only after completion
// returns an already-closed channel and allocates nothing for it.
func TestFutureDoneLazy(t *testing.T) {
	rt := repro.New(repro.WithWorkers(2))
	defer rt.Close()

	gate := make(chan struct{})
	early := repro.Submit(rt, func(*repro.Ctx) (int, error) {
		<-gate
		return 1, nil
	})
	d := early.Done()
	select {
	case <-d:
		t.Fatal("Done closed before the task completed")
	default:
	}
	close(gate)
	<-d
	if early.Done() != d {
		t.Fatal("Done returned a second channel after completion")
	}

	// Await polls completion without asking for a channel, so these
	// complete with nobody holding one: both then share the one
	// pre-closed channel.
	late := repro.Submit(rt, func(*repro.Ctx) (int, error) { return 2, nil })
	other := repro.Submit(rt, func(*repro.Ctx) (int, error) { return 3, nil })
	if err := rt.Run(func(c *repro.Ctx) {
		repro.Await(c, late)
		repro.Await(c, other)
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-late.Done():
	default:
		t.Fatal("Done after completion is not closed")
	}
	if late.Done() != other.Done() {
		t.Fatal("Done after completion made a channel of its own")
	}
	if n := testing.AllocsPerRun(100, func() { <-late.Done() }); n != 0 {
		t.Fatalf("Done after completion allocates %v times, want 0", n)
	}
	if v, err := late.Wait(nil); err != nil || v != 2 {
		t.Fatalf("Wait = %v, %v; want 2, nil", v, err)
	}
}

// TestFutureDoneRacesCompletion: Done and Wait called from two
// goroutines while the task completes — the lazily made channel and
// the completion race for the Handle's slot, and both waiters must
// wake with the result whichever wins. Run it under -race.
func TestFutureDoneRacesCompletion(t *testing.T) {
	rt := repro.New(repro.WithWorkers(2))
	defer rt.Close()
	iters := 2000
	if testing.Short() {
		iters = 500
	}
	for i := 0; i < iters; i++ {
		f := repro.Submit(rt, func(*repro.Ctx) (int, error) { return i, nil })
		waited := make(chan struct{})
		go func() {
			defer close(waited)
			<-f.Done()
		}()
		if v, err := f.Wait(nil); err != nil || v != i {
			t.Fatalf("iteration %d: Wait = %v, %v", i, v, err)
		}
		<-waited
	}
}

// piBody is a package-level body, so submitting it allocates no closure.
func piBody(*repro.Ctx) (float64, error) { return 3.14159, nil }

// TestFutureResultAllocatesOnlyTheFuture: a Future[float64] holds its
// result in place — no box for the value, no wrapper around the body,
// no separate handle — so a Submit joined by Await, which never asks for
// a channel, allocates the Future and nothing else.
func TestFutureResultAllocatesOnlyTheFuture(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	rt := repro.New(repro.WithWorkers(2))
	defer rt.Close()
	const k = 4096
	var bad error
	body := func(c *repro.Ctx) {
		for i := 0; i < k; i++ {
			if v, err := repro.Await(c, repro.Submit(rt, piBody)); err != nil || v != 3.14159 {
				bad = fmt.Errorf("Await = %v, %v", v, err)
			}
		}
	}
	if err := rt.Run(body); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := rt.Run(body)
	runtime.ReadMemStats(&after)
	if err != nil || bad != nil {
		t.Fatal(err, bad)
	}
	per := float64(after.Mallocs-before.Mallocs) / k
	t.Logf("%.3f allocations per Submit", per)
	if per > 1.1 {
		t.Fatalf("%.3f allocations per Submit of a Future[float64], want 1 (the Future)", per)
	}
}

// TestRunCtxCancelDrains is the acceptance scenario: a context
// cancellation drains every unstarted task of the submission — their
// bodies never execute, the dependency graph unwinds, RunCtx returns
// the cause, and LiveTasks reaches 0.
func TestRunCtxCancelDrains(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()

	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("deadline blown")

	gate := make(chan struct{})
	var executed atomic.Int64
	var head float64
	err := rt.RunCtx(ctx, func(c *repro.Ctx) {
		// Head task holds the chain closed until the gate drops (if a
		// worker picks it up before the cancel; either way no chained
		// task may execute).
		c.Spawn(func(*repro.Ctx) { <-gate }, repro.Out(&head))
		// A long chain behind it: every link is unstarted at cancel
		// time and must drain without executing.
		for i := 0; i < 200; i++ {
			c.Spawn(func(*repro.Ctx) { executed.Add(1) }, repro.InOut(&head))
		}
		cancel(cause)
		close(gate)
		c.Taskwait()
	})
	if !errors.Is(err, cause) {
		t.Fatalf("RunCtx error = %v, want cause %v", err, cause)
	}
	if n := executed.Load(); n != 0 {
		t.Fatalf("%d chained tasks executed after cancel, want 0", n)
	}
	if n := rt.LiveTasks(); n != 0 {
		t.Fatalf("LiveTasks = %d after drain, want 0", n)
	}
}

// TestRunCtxAlreadyCancelled: a submission under a dead context never
// runs any body, including the root's.
func TestRunCtxAlreadyCancelled(t *testing.T) {
	rt := repro.New(repro.WithWorkers(2))
	defer rt.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := rt.RunCtx(ctx, func(c *repro.Ctx) { ran = true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx error = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("root body ran under an already-cancelled context")
	}
	if n := rt.LiveTasks(); n != 0 {
		t.Fatalf("LiveTasks = %d, want 0", n)
	}
}

// TestCtxErrPolling: a started body observes the scope cancellation
// through Ctx.Err and can stop early.
func TestCtxErrPolling(t *testing.T) {
	rt := repro.New(repro.WithWorkers(2))
	defer rt.Close()

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var stopped atomic.Bool
	go func() {
		<-started
		cancel()
	}()
	err := rt.RunCtx(ctx, func(c *repro.Ctx) {
		close(started)
		deadline := time.Now().Add(10 * time.Second)
		for c.Err() == nil {
			if time.Now().After(deadline) {
				return
			}
		}
		stopped.Store(true)
	})
	if !stopped.Load() {
		t.Fatal("body never observed Ctx.Err after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx error = %v, want context.Canceled", err)
	}
}

// TestFailFastCancellationRace exercises the fail-fast drain under the
// race detector: many independent tasks while one fails early, run
// repeatedly across runtimes.
func TestFailFastCancellationRace(t *testing.T) {
	boom := errors.New("boom")
	for iter := 0; iter < 8; iter++ {
		rt := repro.New(repro.WithWorkers(4))
		var executed atomic.Int64
		err := rt.Run(func(c *repro.Ctx) {
			repro.GoErr(c, func(*repro.Ctx) error { return boom })
			for i := 0; i < 128; i++ {
				repro.GoErr(c, func(*repro.Ctx) error {
					executed.Add(1)
					return nil
				})
			}
			c.Taskwait()
		})
		if !errors.Is(err, boom) {
			t.Fatalf("iter %d: Run error = %v, want %v", iter, err, boom)
		}
		// Tasks that started before the failure may have run; the rest
		// drained. Both are valid — the invariant is full accounting.
		if n := rt.LiveTasks(); n != 0 {
			t.Fatalf("iter %d: LiveTasks = %d, want 0", iter, n)
		}
		rt.Close()
		_ = executed.Load()
	}
}
