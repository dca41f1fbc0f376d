package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/deps"
)

// chainConfigs returns the optimized runtime config under each
// dependency system: the successor bypass and the pin-gated inline
// recycling must behave identically under both.
func chainConfigs() map[string]Config {
	wf := ConfigFor(VariantOptimized, 4, 2)
	lk := ConfigFor(VariantOptimized, 4, 2)
	lk.Deps = DepsLocked
	return map[string]Config{"wait-free": wf, "locked": lk}
}

// TestBypassChainCompletes drives a long serialized in→out chain — the
// shape where every Unregister readies exactly one successor, so the
// bypass slot carries almost every hand-off — and checks exactly-once
// execution and full live-task unwinding under both deps systems.
func TestBypassChainCompletes(t *testing.T) {
	for name, cfg := range chainConfigs() {
		t.Run(name, func(t *testing.T) {
			rt := New(cfg)
			defer rt.Close()
			const n = 20000
			var x int64
			var ran atomic.Int64
			err := rt.Run(func(c *Ctx) {
				for i := 0; i < n; i++ {
					c.Spawn(func(*Ctx) { x++; ran.Add(1) }, InOut(&x))
				}
				c.Taskwait()
			})
			if err != nil {
				t.Fatal(err)
			}
			if x != n || ran.Load() != n {
				t.Fatalf("chain ran %d/%d tasks, x=%d", ran.Load(), n, x)
			}
			if lv := rt.LiveTasks(); lv != 0 {
				t.Fatalf("LiveTasks = %d after Run returned", lv)
			}
		})
	}
}

// TestBypassChainDrains checks the FailFast drain path through the
// bypass-capable execute loop: an early chain task fails, the rest of
// the (already registered) chain must drain without executing, and the
// graph must still fully unwind to LiveTasks()==0.
func TestBypassChainDrains(t *testing.T) {
	boom := errors.New("boom")
	for name, cfg := range chainConfigs() {
		t.Run(name, func(t *testing.T) {
			rt := New(cfg)
			defer rt.Close()
			const n = 5000
			var x int64
			var ran atomic.Int64
			err := rt.Run(func(c *Ctx) {
				goAny(c, func(*Ctx) (any, error) { return nil, boom }, InOut(&x))
				for i := 0; i < n; i++ {
					c.Spawn(func(*Ctx) { ran.Add(1) }, InOut(&x))
				}
				c.Taskwait()
			})
			if !errors.Is(err, boom) {
				t.Fatalf("Run error = %v, want %v", err, boom)
			}
			if ran.Load() != 0 {
				t.Fatalf("%d drained tasks executed their bodies", ran.Load())
			}
			if lv := rt.LiveTasks(); lv != 0 {
				t.Fatalf("LiveTasks = %d after drained Run", lv)
			}
		})
	}
}

// TestReductionGroupHeadQuiescence is the regression test for the pin
// protocol's subtlest case: reduction run members release on their own
// finished+children-done — long before the chain predecessor's
// satisfiability push reaches the run head — so the head's task shell
// must NOT be recycled at completion even though the task is fully
// done. The HPCCG-shaped DAG below (writer → reduction run → reader,
// twice, plus read chains feeding a multi-access successor) hung
// deterministically before the fix: the head's inline access was
// recycled, the predecessor's release push landed in a reused shell,
// and the readers after the runs never became satisfied.
func TestReductionGroupHeadQuiescence(t *testing.T) {
	for round := 0; round < 20; round++ {
		rt := New(ConfigFor(VariantOptimized, 4, 1))
		var rr, pap, alpha float64
		var p, ap, x, r [2]float64
		err := rt.Run(func(c *Ctx) {
			c.Spawn(func(*Ctx) { rr = 0 }, Out(&rr))
			for i := 0; i < 2; i++ {
				i := i
				c.Spawn(func(cc *Ctx) { cc.ReductionBuffer(&rr)[0] += r[i] },
					In(&r[i]), RedSpec(&rr, 1, deps.OpSum))
			}
			c.Spawn(func(*Ctx) { ap[0] = p[0] + p[1] }, Out(&ap[0]), In(&p[0]), In(&p[1]))
			c.Spawn(func(*Ctx) { ap[1] = p[1] + p[0] }, Out(&ap[1]), In(&p[1]), In(&p[0]))
			c.Spawn(func(*Ctx) { pap = 0 }, Out(&pap))
			for i := 0; i < 2; i++ {
				i := i
				c.Spawn(func(cc *Ctx) { cc.ReductionBuffer(&pap)[0] += p[i] * ap[i] },
					In(&p[i]), In(&ap[i]), RedSpec(&pap, 1, deps.OpSum))
			}
			c.Spawn(func(*Ctx) { alpha = rr + pap }, In(&rr), In(&pap), Out(&alpha))
			for i := 0; i < 2; i++ {
				i := i
				// Five accesses: exercises the overflow (heap) storage path
				// alongside the inline one.
				c.Spawn(func(*Ctx) { x[i] += alpha * p[i]; r[i] -= alpha * ap[i] },
					In(&alpha), In(&p[i]), In(&ap[i]), InOut(&x[i]), InOut(&r[i]))
			}
			c.Taskwait()
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if lv := rt.LiveTasks(); lv != 0 {
			t.Fatalf("round %d: LiveTasks = %d", round, lv)
		}
		rt.Close()
	}
}

// TestInlineAccessReuseChains hammers shell recycling with varying
// access counts (0..6, crossing the inline/overflow boundary) across
// several rounds on one runtime, so recycled shells are re-registered
// with different access-set sizes.
func TestInlineAccessReuseChains(t *testing.T) {
	rt := New(ConfigFor(VariantOptimized, 4, 2))
	defer rt.Close()
	var cells [6]float64
	for round := 0; round < 5; round++ {
		var ran atomic.Int64
		const n = 2000
		err := rt.Run(func(c *Ctx) {
			for i := 0; i < n; i++ {
				specs := make([]AccessSpec, 0, 6)
				for k := 0; k <= i%6; k++ {
					specs = append(specs, InOut(&cells[k]))
				}
				c.Spawn(func(*Ctx) { ran.Add(1) }, specs...)
				if i%512 == 511 {
					c.Taskwait()
				}
			}
			c.Taskwait()
		})
		if err != nil {
			t.Fatal(err)
		}
		if ran.Load() != n {
			t.Fatalf("round %d: ran %d/%d", round, ran.Load(), n)
		}
		if lv := rt.LiveTasks(); lv != 0 {
			t.Fatalf("round %d: LiveTasks = %d", round, lv)
		}
	}
}

// TestCtxSize pins the Ctx layout the padded per-worker ctxSlot assumes
// (three words; the slot pads the remainder of the cache line), and the
// line each bypass slot and hand-off cell pair fills.
func TestCtxSize(t *testing.T) {
	if s := unsafe.Sizeof(Ctx{}); s != 24 {
		t.Fatalf("Ctx size = %d, want 24 (update ctxSlot padding)", s)
	}
	if s := unsafe.Sizeof(ctxSlot{}); s != 64 {
		t.Fatalf("ctxSlot size = %d, want 64", s)
	}
	if s := unsafe.Sizeof(bypassSlot{}); s != 64 {
		t.Fatalf("bypassSlot size = %d, want 64", s)
	}
	if s := unsafe.Sizeof(cellPair{}); s != 64 {
		t.Fatalf("cellPair size = %d, want 64", s)
	}
}

// TestTaskwaitNestedBypass checks the Ctx save/restore around taskwait
// helping: a body that taskwaits while the helper executes a bypassed
// chain must still observe its own task context afterwards (Spawn from
// the outer body attaches to the outer task, not the helped one).
func TestTaskwaitNestedBypass(t *testing.T) {
	rt := New(ConfigFor(VariantOptimized, 2, 1))
	defer rt.Close()
	var x int64
	var outer, inner atomic.Int64
	err := rt.Run(func(c *Ctx) {
		for i := 0; i < 100; i++ {
			c.Spawn(func(cc *Ctx) {
				for j := 0; j < 10; j++ {
					cc.Spawn(func(*Ctx) { inner.Add(1) }, InOut(&x))
				}
				cc.Taskwait()
				// After helping arbitrary chain tasks, cc must still be
				// this task's context: spawn one more child and wait.
				cc.Spawn(func(*Ctx) { inner.Add(1) }, InOut(&x))
				cc.Taskwait()
				outer.Add(1)
			})
		}
		c.Taskwait()
	})
	if err != nil {
		t.Fatal(err)
	}
	if outer.Load() != 100 || inner.Load() != 1100 {
		t.Fatalf("outer=%d inner=%d, want 100/1100", outer.Load(), inner.Load())
	}
	if lv := rt.LiveTasks(); lv != 0 {
		t.Fatalf("LiveTasks = %d", lv)
	}
}
