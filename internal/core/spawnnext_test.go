package core

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"
)

// The hand-off tests run on a built-but-not-started runtime: no worker
// exists, the test goroutine plays worker 0 by calling takeWork and
// execute itself, so which task sits in the bypass slot and which went
// through the scheduler is observable after every step. They run on
// both lock-based schedulers: the hand-off happens in front of the
// scheduler and must not care which one is behind it.

func handoffRuntimes(t *testing.T, f func(t *testing.T, rt *Runtime)) {
	for _, sk := range []SchedulerKind{SchedSyncDTLock, SchedCentralPTLock} {
		t.Run(sk.testName(), func(t *testing.T) {
			rt := build(Config{Workers: 1, Scheduler: sk, IdleSpin: -1})
			defer rt.Close()
			f(t, rt)
		})
	}
}

// chain executes t on worker 0 and then whatever each execute hands
// back, the way workerLoop and helpUntil do.
func chain(rt *Runtime, t *Task) {
	for t != nil {
		t = rt.execute(t, 0)
	}
}

// drive plays worker 0 until the scheduler and the slot are empty.
func drive(rt *Runtime) {
	for t := rt.takeWork(0); t != nil; t = rt.takeWork(0) {
		chain(rt, t)
	}
}

// settled fails the test unless h resolved without error and every task
// of the runtime fully completed.
func settled(t *testing.T, rt *Runtime, h *Handle) {
	t.Helper()
	select {
	case <-h.done:
	default:
		t.Fatal("root did not complete: a task was lost")
	}
	if h.err != nil {
		t.Fatal(h.err)
	}
	if lv := rt.LiveTasks(); lv != 0 {
		t.Fatalf("LiveTasks = %d at quiescence", lv)
	}
}

// TestSpawnNextHandsOff: the first SpawnNext child of a body comes back
// from execute without having been counted into the scheduler; a second
// one finds the slot occupied and is queued like a plain Spawn.
func TestSpawnNextHandsOff(t *testing.T) {
	handoffRuntimes(t, func(t *testing.T, rt *Runtime) {
		var order []string
		h := rt.Submit(func(c *Ctx) (any, error) {
			SpawnNext(c, func(*Ctx) { order = append(order, "first") })
			SpawnNext(c, func(*Ctx) { order = append(order, "second") })
			return nil, nil
		})
		root := rt.takeWork(0)
		if root == nil {
			t.Fatal("submitted root is not queued")
		}
		d := &rt.domains[0]
		added := d.added.Sum()
		first := rt.execute(root, 0)
		if first == nil {
			t.Fatal("execute returned no successor: the first SpawnNext child was not handed off")
		}
		if got := d.added.Sum() - added; got != 1 {
			t.Fatalf("scheduler insertions during the body = %d, want 1 (only the second child)", got)
		}
		if got := d.pending(); got != 1 {
			t.Fatalf("pending = %d, want the second child alone", got)
		}
		if next := rt.execute(first, 0); next != nil {
			t.Fatal("a leaf child handed back a successor")
		}
		if !slices.Equal(order, []string{"first"}) {
			t.Fatalf("after the handed-off task ran: %v, want [first]", order)
		}
		drive(rt)
		if !slices.Equal(order, []string{"first", "second"}) {
			t.Fatalf("execution order %v", order)
		}
		settled(t, rt, h)
	})
}

// TestSpawnNextDeclines: the ready callback's gates apply to a
// SpawnNext child exactly as to a released successor — a queued task of
// a higher level, a commutative access and an aborted scope each send
// it through the scheduler.
func TestSpawnNextDeclines(t *testing.T) {
	var x float64
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		// queueHigher submits a MaxPriority root once the spawning root
		// is in hand, so it is queued while the body runs.
		queueHigher bool
		body        func(c *Ctx, child func(*Ctx))
		wantErr     error
		wantRan     bool
	}{
		{
			name:        "higher-priority-queued",
			queueHigher: true,
			body:        func(c *Ctx, child func(*Ctx)) { SpawnNext(c, child) },
			wantRan:     true,
		},
		{
			name:    "commutative",
			body:    func(c *Ctx, child func(*Ctx)) { SpawnNext(c, child, Commutative(&x)) },
			wantRan: true,
		},
		{
			name: "aborted-scope",
			body: func(c *Ctx, child func(*Ctx)) {
				c.Fail(boom)
				SpawnNext(c, child)
			},
			wantErr: boom,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			handoffRuntimes(t, func(t *testing.T, rt *Runtime) {
				ran := false
				h := rt.Submit(func(c *Ctx) (any, error) {
					tc.body(c, func(*Ctx) { ran = true })
					return nil, nil
				})
				root := rt.takeWork(0)
				var hi *Handle
				if tc.queueHigher {
					hi = rt.Submit(func(*Ctx) (any, error) { return nil, nil }, Priority(MaxPriority))
				}
				d := &rt.domains[0]
				added := d.added.Sum()
				if next := rt.execute(root, 0); next != nil {
					t.Fatal("the child was handed off past a closed gate")
				}
				if got := d.added.Sum() - added; got != 1 {
					t.Fatalf("scheduler insertions during the body = %d, want 1 (the declined child)", got)
				}
				drive(rt)
				if ran != tc.wantRan {
					t.Fatalf("child ran = %v, want %v", ran, tc.wantRan)
				}
				<-h.done
				if !errors.Is(h.err, tc.wantErr) {
					t.Fatalf("root error = %v, want %v", h.err, tc.wantErr)
				}
				if hi != nil {
					<-hi.done
				}
				if lv := rt.LiveTasks(); lv != 0 {
					t.Fatalf("LiveTasks = %d at quiescence", lv)
				}
			})
		})
	}
}

// TestSpawnNextThenTaskwait: a body that hands a child over and then
// waits for it finds it in takeWork — the helping loop reads the
// caller's own slot before the scheduler, which never saw the child.
func TestSpawnNextThenTaskwait(t *testing.T) {
	handoffRuntimes(t, func(t *testing.T, rt *Runtime) {
		childRan, sawChild := false, false
		h := rt.Submit(func(c *Ctx) (any, error) {
			SpawnNext(c, func(*Ctx) { childRan = true })
			c.Taskwait()
			sawChild = childRan
			return nil, nil
		})
		root := rt.takeWork(0)
		d := &rt.domains[0]
		added := d.added.Sum()
		chain(rt, root)
		if !sawChild {
			t.Fatal("Taskwait returned before the handed-off child ran")
		}
		if got := d.added.Sum() - added; got != 0 {
			t.Fatalf("scheduler insertions = %d, want 0: the child never left the slot", got)
		}
		settled(t, rt, h)
	})
}

// TestSpawnNextThenDoneFrom: DoneFrom arms the caller's slot for the
// deferred release while a SpawnNext child already sits in it. The
// released successor must be queued (the slot is taken), the child must
// run, and neither may be lost.
func TestSpawnNextThenDoneFrom(t *testing.T) {
	handoffRuntimes(t, func(t *testing.T, rt *Runtime) {
		var v float64
		var ec *EventCounter
		var order []string
		h := rt.Submit(func(c *Ctx) (any, error) {
			c.Spawn(func(c *Ctx) {
				ec = c.Events()
				ec.Add(1)
			}, Out(&v))
			c.Spawn(func(*Ctx) { order = append(order, "successor") }, In(&v))
			c.Spawn(func(c *Ctx) {
				SpawnNext(c, func(*Ctx) { order = append(order, "child") })
				ec.DoneFrom(c)
				order = append(order, "body")
			})
			return nil, nil
		})
		drive(rt)
		// The deferred release takes the slot's content and runs it on
		// the spot, inside the DoneFrom call; the successor it readied
		// found the slot occupied and went through the scheduler.
		if !slices.Equal(order, []string{"child", "body", "successor"}) {
			t.Fatalf("execution order %v, want [child body successor]", order)
		}
		settled(t, rt, h)
	})
}

// TestSpawnNextThenEventHold: a body hands a child over and then parks
// on an external event. execute's early return for a parked task must
// carry the slot's content: the worker goes straight back to polling the
// scheduler, which never saw the child, so nothing else would run it.
func TestSpawnNextThenEventHold(t *testing.T) {
	for _, sk := range []SchedulerKind{SchedSyncDTLock, SchedCentralPTLock} {
		t.Run(sk.testName(), func(t *testing.T) {
			rt := New(Config{Workers: 1, Scheduler: sk})
			childRan := make(chan struct{})
			h := rt.Submit(func(c *Ctx) (any, error) {
				SpawnNext(c, func(*Ctx) { close(childRan) })
				c.After(time.Millisecond)
				return nil, nil
			})
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := h.Wait(ctx); err != nil {
				// No Close: it would wait forever for the stranded child.
				t.Fatalf("root never completed (%v): the child of a parked body was stranded in the slot", err)
			}
			<-childRan
			if lv := rt.LiveTasks(); lv != 0 {
				t.Errorf("LiveTasks = %d after the root resolved", lv)
			}
			rt.Close()
		})
	}
}
