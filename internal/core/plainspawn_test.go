package core

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/deps"
)

// Tests for what an access-free task no longer pays for: the shell
// guard pin it cannot need, and the completion-side stores of values
// its shell already holds (see newTask, completeOne, resetBody).

// nodePins reads a node's pin count, which deps keeps unexported.
func nodePins(n *deps.Node) int32 {
	f, _ := reflect.TypeOf(n).Elem().FieldByName("pins")
	return (*atomic.Int32)(unsafe.Add(unsafe.Pointer(n), f.Offset)).Load()
}

// TestAccessFreeTaskHoldsNoPin: a task with no accesses — a root or a
// spawned child — holds no pin while its body runs, on both dependency
// systems; a task with one access holds the shell guard, plus, on the
// wait-free system, the access's link pin.
func TestAccessFreeTaskHoldsNoPin(t *testing.T) {
	for _, k := range []DepsKind{DepsWaitFree, DepsLocked} {
		t.Run(k.testName(), func(t *testing.T) {
			rt := New(Config{Workers: 2, Deps: k})
			defer rt.Close()
			var x int
			var root, free, one atomic.Int32
			root.Store(-1)
			free.Store(-1)
			one.Store(-1)
			err := rt.Run(func(c *Ctx) {
				root.Store(nodePins(&c.task.node))
				c.Spawn(func(c *Ctx) { free.Store(nodePins(&c.task.node)) })
				c.Spawn(func(c *Ctx) { one.Store(nodePins(&c.task.node)) }, InOut(&x))
				c.Taskwait()
			})
			if err != nil {
				t.Fatal(err)
			}
			want := int32(2) // the shell guard and the link pin
			if k == DepsLocked {
				want = 1 // the locking baseline takes no access pins
			}
			if r, f := root.Load(), free.Load(); r != 0 || f != 0 {
				t.Errorf("access-free root holds %d pins and access-free child %d while running, want 0 each", r, f)
			}
			if o := one.Load(); o != want {
				t.Errorf("a task with one access holds %d pins while running, want %d", o, want)
			}
		})
	}
}

// TestAccessFreeShellsRecycled: a task without a shell guard is still
// recycled at its completion. 100 000 plain spawns with no Taskwait
// come from a bounded set of shells: the spawn window caps the children
// in flight, and the pool holds the rest.
func TestAccessFreeShellsRecycled(t *testing.T) {
	const n = 100_000
	rt := New(Config{Workers: 2})
	defer rt.Close()
	seen := make([]*Task, n)
	err := rt.Run(func(c *Ctx) {
		for i := range seen {
			slot := &seen[i]
			c.Spawn(func(c *Ctx) { *slot = c.task })
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	shells := make(map[*Task]struct{})
	for _, s := range seen {
		shells[s] = struct{}{}
	}
	// The window, with as much again for the free lists and the global
	// arena between them.
	if d := len(shells); d > 2*spawnWindow {
		t.Fatalf("%d plain spawns ran in %d distinct shells, want at most %d: completed shells are not recycled", n, d, 2*spawnWindow)
	}
	t.Logf("%d plain spawns ran in %d distinct shells", n, len(shells))
}

// TestAccessFreeShellClearsLineZero: a shell that carried a Future —
// its handle, its result-delivering body and an event counter — and is
// then reused by a plain spawn shows the new body none of them. One
// worker makes the reuse deterministic (the free list is LIFO); the
// test fails if it never happens.
func TestAccessFreeShellClearsLineZero(t *testing.T) {
	rt := New(Config{Workers: 1})
	reused := 0
	done := make(chan error, 1)
	go func() {
		done <- rt.Run(func(c *Ctx) {
			for range 16 {
				var prev *Task
				goAny(c, func(c *Ctx) (any, error) {
					c.Events() // guard only: drained when the body returns
					prev = c.task
					return nil, nil
				})
				c.Taskwait()
				ran := false
				c.Spawn(func(c *Ctx) {
					ran = true
					if c.task != prev {
						return
					}
					reused++
					if x := c.task; x.handle != nil || x.req != nil || x.fn != nil || x.events != nil || x.ownsScope {
						t.Errorf("a plain spawn in a Future's shell sees handle %p, req %p, fn %v, events %p, ownsScope %v; want none",
							x.handle, x.req, x.fn, x.events, x.ownsScope)
					}
				})
				c.Taskwait()
				if !ran {
					t.Error("the plain spawn's body did not run: the shell ran its last incarnation's body")
				}
			}
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		// A stale handle resolves a Future twice; the runtime is left
		// running rather than hang Close.
		t.Fatal("the run did not finish within 10s")
	}
	rt.Close()
	if reused == 0 {
		t.Fatal("no plain spawn reused the Future's shell: the test exercised nothing")
	}
}

// TestResetBodyClearsLineZero: resetBody skips the stores of line-0
// fields that are already clear, and still clears every one that is
// set — a request latch included, which only a SubmitReq root carries.
func TestResetBodyClearsLineZero(t *testing.T) {
	var x Task
	var h Handle
	x.handle, x.req, x.fn, x.events, x.ownsScope = &h, new(Req), &anyFuture{}, &h.events, true
	x.body, x.parent, x.sc, x.inherit = func(*Ctx) {}, &x, &scope{}, true
	x.resetBody()
	if x.handle != nil || x.req != nil || x.fn != nil || x.events != nil || x.ownsScope {
		t.Errorf("after resetBody: handle %p, req %p, fn %v, events %p, ownsScope %v; want none",
			x.handle, x.req, x.fn, x.events, x.ownsScope)
	}
	if x.body != nil || x.parent != nil || x.sc != nil || x.inherit {
		t.Errorf("after resetBody: body set %v, parent %p, sc %p, inherit %v; want none",
			x.body != nil, x.parent, x.sc, x.inherit)
	}
}
