package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/deps"
)

// unregisterWatch decorates the dependency system: it remembers which
// node each thread slot is currently unregistering.
type unregisterWatch struct {
	deps.System
	cur []atomic.Pointer[deps.Node]
}

func (w *unregisterWatch) Unregister(n *deps.Node, worker int) {
	w.cur[worker].Store(n)
	w.System.Unregister(n, worker)
	w.cur[worker].Store(nil)
}

// TestShellGuardOutlivesUnregister is the runtime's half of the held-
// push contract (deps.TestHeldPushShellGuardCoversUnregister is the
// other): deps.Unregister sends the task's own accesses unpinned
// messages because the shell guard taken in newTask is dropped only in
// completeOne, after Unregister has returned. While the guard is held
// the node's pin count cannot reach zero inside its own Unregister, so
// the quiescence callback firing for the very node the calling slot is
// unregistering means the guard went early. The chain below makes that
// the common case if it ever does: every task's only other pins are its
// access pins, which its own Unregister drops (a later sibling has
// replaced each access as its chain's tail by then).
func TestShellGuardOutlivesUnregister(t *testing.T) {
	rt := build(Config{Workers: 2})
	watch := &unregisterWatch{System: rt.deps, cur: make([]atomic.Pointer[deps.Node], rt.Slots())}
	var early, late atomic.Int64
	rt.deps.(*deps.WaitFree).OnQuiescent(func(n *deps.Node, worker int) {
		if watch.cur[worker].Load() == n {
			early.Add(1) // and leak the shell: recycling it here corrupts the run
			return
		}
		late.Add(1)
		rt.recycleQuiescent(n, worker)
	})
	rt.deps = watch
	rt.start()
	defer rt.Close()

	var cells [5]float64
	err := rt.Run(func(c *Ctx) {
		for i := 0; i < 4096; i++ {
			c.Spawn(func(*Ctx) {}, InOut(&cells[0]), In(&cells[1]), In(&cells[2]), In(&cells[3]), In(&cells[4]))
			if i%512 == 511 {
				c.Taskwait()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := early.Load(); n != 0 {
		t.Fatalf("%d shells quiesced inside their own Unregister: the shell guard was dropped before it returned", n)
	}
	t.Logf("%d shells recycled by the quiescence callback, none inside its own Unregister", late.Load())
}
