package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// The hand-off tests run on a built-but-not-started runtime: no worker
// exists, the test goroutine plays worker 0 by calling take and
// execute itself, so which task the bypass slot handed back and which
// went through the scheduler is observable after every step. They run
// on both lock-based schedulers: the hand-off happens in front of the
// scheduler and must not care which one is behind it.

func handoffRuntimes(t *testing.T, f func(t *testing.T, rt *Runtime)) {
	for _, sk := range []SchedulerKind{SchedSyncDTLock, SchedCentralPTLock} {
		t.Run(sk.testName(), func(t *testing.T) {
			rt := build(Config{Workers: 1, Scheduler: sk})
			defer rt.Close()
			f(t, rt)
		})
	}
}

// take is worker 0's poll, the one helpUntil makes.
func take(rt *Runtime) *Task { return rt.schedTook(rt.sched.TryGet(0), 0) }

// chain executes t on worker 0 and then whatever each execute hands
// back, the way workerLoop and helpUntil do.
func chain(rt *Runtime, t *Task) {
	for t != nil {
		t = rt.execute(t, 0)
	}
}

// drive plays worker 0 until the scheduler is empty.
func drive(rt *Runtime) {
	for t := take(rt); t != nil; t = take(rt) {
		chain(rt, t)
	}
}

// driveUntil plays worker 0 until h resolves, waiting out the timers
// and external completions that release tasks from other goroutines.
func driveUntil(t *testing.T, rt *Runtime, h *anyFuture) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		drive(rt)
		select {
		case <-h.Done():
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("root did not complete: a task was lost")
		}
	}
}

// settled fails the test unless h resolved without error and every task
// of the runtime fully completed.
func settled(t *testing.T, rt *Runtime, h *anyFuture) {
	t.Helper()
	select {
	case <-h.Done():
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

// submit is Submit for a body without a result.
func submit(rt *Runtime, body func(*Ctx)) *anyFuture {
	return submitAny(rt, func(c *Ctx) (any, error) {
		body(c)
		return nil, nil
	})
}

// TestBypassGates: the successor a dependency release readies comes
// back from execute without being counted into the scheduler — unless
// one of the ready callback's gates closes: a queued task of a higher
// level, a commutative access and an aborted scope each send it through
// the scheduler.
func TestBypassGates(t *testing.T) {
	var x float64
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		// queueHigher submits a MaxPriority root once the producer is in
		// hand, so it is queued while the producer's release runs.
		queueHigher bool
		commutative bool
		fail        bool // the producer fails its scope
		handOff     bool
		wantErr     error
	}{
		{name: "handed-off", handOff: true},
		{name: "higher-priority-queued", queueHigher: true},
		{name: "commutative", commutative: true},
		{name: "aborted-scope", fail: true, wantErr: boom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			handoffRuntimes(t, func(t *testing.T, rt *Runtime) {
				var v float64
				ran := false
				succ := []AccessSpec{In(&v)}
				if tc.commutative {
					succ = append(succ, Commutative(&x))
				}
				h := submit(rt, func(c *Ctx) {
					c.Spawn(func(c *Ctx) {
						if tc.fail {
							c.Fail(boom)
						}
					}, Out(&v))
					c.Spawn(func(*Ctx) { ran = true }, succ...)
				})
				chain(rt, take(rt)) // the root: queues the producer
				producer := take(rt)
				if producer == nil {
					t.Fatal("the producer is not queued")
				}
				var hi *anyFuture
				if tc.queueHigher {
					hi = submitAny(rt, func(*Ctx) (any, error) { return nil, nil }, Priority(MaxPriority))
				}
				added := rt.added.Sum()
				next := rt.execute(producer, 0)
				if (next != nil) != tc.handOff {
					t.Fatalf("execute handed back %p, want a hand-off = %v", next, tc.handOff)
				}
				want := int64(1) // the declined successor
				if tc.handOff {
					want = 0
				}
				if got := rt.added.Sum() - added; got != want {
					t.Fatalf("scheduler insertions during the release = %d, want %d", got, want)
				}
				chain(rt, next)
				drive(rt)
				if ran != (tc.wantErr == nil) {
					t.Fatalf("successor ran = %v under root error %v", ran, tc.wantErr)
				}
				<-h.Done()
				if !errors.Is(h.err, tc.wantErr) {
					t.Fatalf("root error = %v, want %v", h.err, tc.wantErr)
				}
				if hi != nil {
					<-hi.Done()
				}
				if lv := rt.LiveTasks(); lv != 0 {
					t.Fatalf("LiveTasks = %d at quiescence", lv)
				}
			})
		})
	}
}

// TestBypassSlotEmptyAroundBodies: no body runs inside an armed region,
// so the bypass slot of the thread running a body is disarmed and empty
// when the body starts and when it returns — the invariant that lets
// execute's event-hold return, helpUntil and releaseDeferred ignore the
// slot. Every way a body can stop running, or run another body before
// it returns, is covered: Taskwait, an event hold, DoneFrom, inline
// SubmitReq, and a compiled node declined by ContinueNode and spawned.
func TestBypassSlotEmptyAroundBodies(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, rt *Runtime, wrap func(func(*Ctx)) func(*Ctx))
	}{
		{"taskwait", func(t *testing.T, rt *Runtime, wrap func(func(*Ctx)) func(*Ctx)) {
			var x int
			h := submit(rt, wrap(func(c *Ctx) {
				for i := 0; i < 8; i++ {
					c.Spawn(wrap(func(*Ctx) { x++ }), InOut(&x))
				}
				c.Taskwait()
				if x != 8 {
					t.Errorf("Taskwait returned after %d of 8 children", x)
				}
			}))
			driveUntil(t, rt, h)
			settled(t, rt, h)
		}},
		{"event-hold", func(t *testing.T, rt *Runtime, wrap func(func(*Ctx)) func(*Ctx)) {
			var v float64
			ran := false
			h := submit(rt, wrap(func(c *Ctx) {
				c.Spawn(wrap(func(c *Ctx) { c.After(time.Millisecond) }), Out(&v))
				c.Spawn(wrap(func(*Ctx) { ran = true }), In(&v))
			}))
			driveUntil(t, rt, h)
			settled(t, rt, h)
			if !ran {
				t.Fatal("the successor of the parked task never ran")
			}
		}},
		{"done-from", func(t *testing.T, rt *Runtime, wrap func(func(*Ctx)) func(*Ctx)) {
			var v float64
			var ec *EventCounter
			var order []string
			h := submit(rt, wrap(func(c *Ctx) {
				c.Spawn(wrap(func(c *Ctx) {
					ec = c.Events()
					ec.Add(1)
				}), Out(&v))
				c.Spawn(wrap(func(*Ctx) { order = append(order, "successor") }), In(&v))
				c.Spawn(wrap(func(c *Ctx) {
					// The deferred release runs the successor it readies on
					// the spot, inside this body.
					ec.DoneFrom(c)
					order = append(order, "body")
				}))
			}))
			driveUntil(t, rt, h)
			settled(t, rt, h)
			if len(order) != 2 || order[0] != "successor" {
				t.Fatalf("execution order %v, want [successor body]", order)
			}
		}},
		{"inline-submitreq", func(t *testing.T, rt *Runtime, wrap func(func(*Ctx)) func(*Ctx)) {
			var x int
			r := NewReq()
			// No worker runs: the request completes on the caller's
			// serving slot or not at all.
			rt.SubmitReq(context.Background(), r, 0, wrap(func(c *Ctx) {
				for i := 0; i < 8; i++ {
					c.Spawn(wrap(func(*Ctx) { x++ }), InOut(&x))
				}
				c.Taskwait()
			}))
			if err := r.Wait(); err != nil || x != 8 {
				t.Fatalf("request = %v after %d of 8 children", err, x)
			}
		}},
		{"declined-node", func(t *testing.T, rt *Runtime, wrap func(func(*Ctx)) func(*Ctx)) {
			var hi *anyFuture
			ran := false
			h := submit(rt, wrap(func(c *Ctx) {
				// A fan-out sibling, spawned first, and then the kept
				// node, which an elevated task queued meanwhile turns
				// away from the continuation: GraphExec.advance's
				// declined branch.
				c.Spawn(wrap(func(*Ctx) {}))
				hi = submitAny(rt, func(*Ctx) (any, error) { return nil, nil }, Priority(MaxPriority))
				if ContinueNode(c, 1) {
					t.Error("ContinueNode passed with an elevated task queued")
				}
				c.Spawn(wrap(func(*Ctx) { ran = true }))
			}))
			driveUntil(t, rt, h)
			settled(t, rt, h)
			<-hi.Done()
			if !ran {
				t.Fatal("the declined node never ran")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			handoffRuntimes(t, func(t *testing.T, rt *Runtime) {
				tc.run(t, rt, func(body func(*Ctx)) func(*Ctx) {
					return func(c *Ctx) {
						slotEmpty(t, c, "start")
						body(c)
						slotEmpty(t, c, "return")
					}
				})
			})
		})
	}
}

// slotEmpty fails t unless the bypass slot of the thread running c is
// disarmed and empty.
func slotEmpty(t *testing.T, c *Ctx, when string) {
	if bs := &c.rt.bypass[c.worker]; bs.armed || bs.next != nil {
		t.Errorf("bypass slot of thread %d at body %s: armed = %v, holding %p", c.worker, when, bs.armed, bs.next)
	}
}
