package repro_test

import (
	"testing"

	"repro"
	"repro/internal/core"
)

// TestPublicAPIQuickstart exercises the façade exactly as the README's
// quickstart does.
func TestPublicAPIQuickstart(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()

	var x float64
	rt.Run(func(c *repro.Ctx) {
		c.Spawn(func(*repro.Ctx) { x = 21 }, repro.Out(&x))
		c.Spawn(func(*repro.Ctx) { x *= 2 }, repro.InOut(&x))
		c.Taskwait()
	})
	if x != 42 {
		t.Fatalf("x = %v, want 42", x)
	}
}

func TestPublicAPIReductions(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()
	var sum, mx float64
	mx = -1e300
	rt.Run(func(c *repro.Ctx) {
		for i := 1; i <= 10; i++ {
			i := i
			c.Spawn(func(cc *repro.Ctx) {
				cc.ReductionBuffer(&sum)[0] += float64(i)
			}, repro.RedSum(&sum, 1))
			c.Spawn(func(cc *repro.Ctx) {
				buf := cc.ReductionBuffer(&mx)
				if float64(i) > buf[0] {
					buf[0] = float64(i)
				}
			}, repro.RedMax(&mx, 1))
		}
		c.Taskwait()
	})
	if sum != 55 || mx != 10 {
		t.Fatalf("sum=%v max=%v, want 55, 10", sum, mx)
	}
}

// TestPublicAPIVariants builds all seven presets through the façade:
// each has core.ConfigFor's whole design (the four axes, the pinned
// pool and its shape), and a spawned task runs.
func TestPublicAPIVariants(t *testing.T) {
	type design struct {
		Scheduler          core.SchedulerKind
		Deps               core.DepsKind
		Alloc              core.AllocKind
		Policy             core.PolicyKind
		PinWorkers         bool
		Workers, NUMANodes int
	}
	of := func(c repro.Config) design {
		return design{c.Scheduler, c.Deps, c.Alloc, c.Policy, c.PinWorkers, c.Workers, c.NUMANodes}
	}
	for _, v := range []repro.Variant{
		repro.VariantOptimized, repro.VariantNoDTLock,
		repro.VariantNoWaitFreeDeps, repro.VariantNoJemalloc,
		repro.VariantGOMPLike, repro.VariantLLVMLike, repro.VariantIntelLike,
	} {
		rt := repro.NewVariant(v, 2, 1)
		if got, want := of(rt.Config()), of(core.ConfigFor(v, 2, 1)); got != want {
			t.Errorf("%s: design %+v, core.ConfigFor's %+v", v, got, want)
		}
		var ran bool
		rt.Run(func(c *repro.Ctx) {
			c.Spawn(func(*repro.Ctx) { ran = true })
			c.Taskwait()
		})
		rt.Close()
		if !ran {
			t.Fatalf("%s: task did not run", v)
		}
	}
}

func TestPublicAPICommutative(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()
	var token float64
	var counter int64 // unsynchronized; commutative access must protect it
	rt.Run(func(c *repro.Ctx) {
		for i := 0; i < 64; i++ {
			c.Spawn(func(*repro.Ctx) { counter++ }, repro.Commutative(&token))
		}
		c.Taskwait()
	})
	if counter != 64 {
		t.Fatalf("counter = %d, want 64", counter)
	}
}
