package core

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/deps"
	"repro/internal/trace"
)

// testConfig returns a small runtime config suited to the test host.
func testConfig(v Variant) Config {
	c := ConfigFor(v, 4, 2)
	c.PinWorkers = false // keep the race detector fast on small hosts
	return c
}

func TestRunIndependentTasks(t *testing.T) {
	for _, v := range append(Variants(), ComparisonVariants()[1:]...) {
		v := v
		t.Run(string(v), func(t *testing.T) {
			rt := New(testConfig(v))
			defer rt.Close()
			var count atomic.Int64
			rt.Run(func(c *Ctx) {
				for i := 0; i < 200; i++ {
					c.Spawn(func(*Ctx) { count.Add(1) })
				}
				c.Taskwait()
				if got := count.Load(); got != 200 {
					t.Errorf("taskwait returned with %d/200 tasks done", got)
				}
			})
			if count.Load() != 200 {
				t.Fatalf("ran %d tasks, want 200", count.Load())
			}
			if rt.LiveTasks() != 0 {
				t.Fatalf("%d live tasks after Run", rt.LiveTasks())
			}
		})
	}
}

func TestDependencyChainOrder(t *testing.T) {
	for _, v := range Variants() {
		v := v
		t.Run(string(v), func(t *testing.T) {
			rt := New(testConfig(v))
			defer rt.Close()
			var x float64
			const steps = 100
			rt.Run(func(c *Ctx) {
				for i := 0; i < steps; i++ {
					c.Spawn(func(*Ctx) { x++ }, InOut(&x))
				}
			})
			if x != steps {
				t.Fatalf("x = %v, want %d (chain order violated)", x, steps)
			}
		})
	}
}

func TestProducerConsumerGraph(t *testing.T) {
	// A diamond: two producers write separate cells; a consumer reads
	// both and writes a result; repeated over many blocks.
	rt := New(testConfig(VariantOptimized))
	defer rt.Close()
	const blocks = 50
	a := make([]float64, blocks)
	b := make([]float64, blocks)
	sum := make([]float64, blocks)
	rt.Run(func(c *Ctx) {
		for i := 0; i < blocks; i++ {
			i := i
			c.Spawn(func(*Ctx) { a[i] = float64(i) }, Out(&a[i]))
			c.Spawn(func(*Ctx) { b[i] = 2 * float64(i) }, Out(&b[i]))
			c.Spawn(func(*Ctx) { sum[i] = a[i] + b[i] },
				In(&a[i]), In(&b[i]), Out(&sum[i]))
		}
	})
	for i := 0; i < blocks; i++ {
		if sum[i] != 3*float64(i) {
			t.Fatalf("sum[%d] = %v, want %v", i, sum[i], 3*float64(i))
		}
	}
}

func TestReductionDotProduct(t *testing.T) {
	for _, v := range Variants() {
		v := v
		t.Run(string(v), func(t *testing.T) {
			rt := New(testConfig(v))
			defer rt.Close()
			const n = 1 << 12
			const block = 1 << 8
			x := make([]float64, n)
			y := make([]float64, n)
			for i := range x {
				x[i] = 1
				y[i] = 2
			}
			var result float64
			rt.Run(func(c *Ctx) {
				for b := 0; b < n; b += block {
					b := b
					c.Spawn(func(cc *Ctx) {
						acc := cc.ReductionBuffer(&result)
						s := 0.0
						for i := b; i < b+block; i++ {
							s += x[i] * y[i]
						}
						acc[0] += s
					}, RedSpec(&result, 1, deps.OpSum))
				}
				c.Taskwait()
			})
			if result != 2*n {
				t.Fatalf("dot = %v, want %v", result, 2*n)
			}
		})
	}
}

func TestReductionFollowedByReaderTask(t *testing.T) {
	rt := New(testConfig(VariantOptimized))
	defer rt.Close()
	var acc float64
	var seen float64 = -1
	rt.Run(func(c *Ctx) {
		for i := 0; i < 16; i++ {
			c.Spawn(func(cc *Ctx) {
				cc.ReductionBuffer(&acc)[0]++
			}, RedSpec(&acc, 1, deps.OpSum))
		}
		c.Spawn(func(*Ctx) { seen = acc }, In(&acc))
	})
	if seen != 16 {
		t.Fatalf("reader saw %v, want 16", seen)
	}
}

func TestNestedTasksAndCrossNestingDeps(t *testing.T) {
	for _, v := range Variants() {
		v := v
		t.Run(string(v), func(t *testing.T) {
			rt := New(testConfig(v))
			defer rt.Close()
			var x float64
			var order []string
			rt.Run(func(c *Ctx) {
				c.Spawn(func(cc *Ctx) {
					order = append(order, "parent")
					cc.Spawn(func(*Ctx) {
						time.Sleep(time.Millisecond)
						order = append(order, "child")
						x = 1
					}, InOut(&x))
				}, InOut(&x))
				c.Spawn(func(*Ctx) {
					order = append(order, "successor")
					x *= 10
				}, InOut(&x))
			})
			if x != 10 {
				t.Fatalf("x = %v, want 10 (successor ran before child)", x)
			}
			want := []string{"parent", "child", "successor"}
			for i := range want {
				if order[i] != want[i] {
					t.Fatalf("order = %v", order)
				}
			}
		})
	}
}

func TestTaskwaitWaitsForGrandchildren(t *testing.T) {
	rt := New(testConfig(VariantOptimized))
	defer rt.Close()
	var done atomic.Int64
	rt.Run(func(c *Ctx) {
		for i := 0; i < 10; i++ {
			c.Spawn(func(cc *Ctx) {
				for j := 0; j < 5; j++ {
					cc.Spawn(func(*Ctx) {
						time.Sleep(100 * time.Microsecond)
						done.Add(1)
					})
				}
			})
		}
		c.Taskwait()
		if done.Load() != 50 {
			t.Errorf("taskwait returned with %d/50 grandchildren done", done.Load())
		}
	})
}

func TestCommutativeTasks(t *testing.T) {
	for _, v := range Variants() {
		v := v
		t.Run(string(v), func(t *testing.T) {
			rt := New(testConfig(v))
			defer rt.Close()
			var shared int64 // non-atomic: relies on commutative exclusion
			var token float64
			rt.Run(func(c *Ctx) {
				for i := 0; i < 40; i++ {
					c.Spawn(func(*Ctx) { shared++ }, Commutative(&token))
				}
			})
			if shared != 40 {
				t.Fatalf("shared = %d, want 40 (mutual exclusion violated)", shared)
			}
		})
	}
}

func TestMultipleRuns(t *testing.T) {
	rt := New(testConfig(VariantOptimized))
	defer rt.Close()
	var total atomic.Int64
	for r := 0; r < 5; r++ {
		rt.Run(func(c *Ctx) {
			for i := 0; i < 20; i++ {
				c.Spawn(func(*Ctx) { total.Add(1) })
			}
		})
	}
	if total.Load() != 100 {
		t.Fatalf("total = %d, want 100", total.Load())
	}
}

func TestRunWithRootAccesses(t *testing.T) {
	rt := New(testConfig(VariantOptimized))
	defer rt.Close()
	var x float64
	rt.Run(func(*Ctx) { x = 5 }, Out(&x))
	rt.Run(func(*Ctx) { x *= 3 }, InOut(&x))
	if x != 15 {
		t.Fatalf("x = %v, want 15", x)
	}
}

func TestTracerCollectsEvents(t *testing.T) {
	cfg := testConfig(VariantOptimized)
	cfg.TraceCapacity = 1 << 12
	rt := New(cfg)
	rt.Run(func(c *Ctx) {
		for i := 0; i < 30; i++ {
			c.Spawn(func(*Ctx) { time.Sleep(50 * time.Microsecond) })
		}
		c.Taskwait()
	})
	// A lock owner may still emit a serve or drain event after Run
	// returns: read the trace only once the workers are gone.
	rt.Close()
	sum := trace.Analyze(rt.Tracer().Snapshot())
	tot := sum.Totals()
	if tot.TaskCount != 31 { // 30 children + root
		t.Fatalf("trace counted %d tasks, want 31", tot.TaskCount)
	}
	if tot.TaskTime <= 0 {
		t.Fatal("no task time recorded")
	}
}

func TestNoiseInjection(t *testing.T) {
	cfg := testConfig(VariantOptimized)
	cfg.TraceCapacity = 1 << 12
	cfg.Noise = NoiseConfig{AfterServes: 1, Duration: 200 * time.Microsecond}
	rt := New(cfg)
	rt.Run(func(c *Ctx) {
		for i := 0; i < 500; i++ {
			c.Spawn(func(*Ctx) {})
		}
		c.Taskwait()
	})
	rt.Close() // the trace is read only once the workers are gone
	tot := trace.Analyze(rt.Tracer().Snapshot()).Totals()
	// Serving is opportunistic: with 500 fine tasks over 4 workers a
	// delegation serve is overwhelmingly likely, but tolerate zero to
	// avoid flakiness; when a serve happened, the interrupt must too.
	if tot.Serves > 0 && tot.Interrupts != 1 {
		t.Fatalf("serves=%d interrupts=%d, want exactly one interrupt", tot.Serves, tot.Interrupts)
	}
}

func TestConfigForPresets(t *testing.T) {
	cases := map[Variant]struct {
		sched SchedulerKind
		deps  DepsKind
		alloc AllocKind
	}{
		VariantOptimized:      {SchedSyncDTLock, DepsWaitFree, AllocPooled},
		VariantNoJemalloc:     {SchedSyncDTLock, DepsWaitFree, AllocSerial},
		VariantNoWaitFreeDeps: {SchedSyncDTLock, DepsLocked, AllocPooled},
		VariantNoDTLock:       {SchedCentralPTLock, DepsWaitFree, AllocPooled},
		VariantGOMPLike:       {SchedBlocking, DepsLocked, AllocSerial},
		VariantLLVMLike:       {SchedWorkStealing, DepsLocked, AllocPooled},
	}
	for v, want := range cases {
		c := ConfigFor(v, 8, 2)
		if c.Scheduler != want.sched || c.Deps != want.deps || c.Alloc != want.alloc {
			t.Errorf("%s: got %+v", v, c)
		}
	}
}

func TestHeavyChurnRecycling(t *testing.T) {
	// Many short-lived tasks exercise the allocator recycling path; the
	// final state must still be exact.
	rt := New(testConfig(VariantOptimized))
	defer rt.Close()
	cells := make([]float64, 16)
	const rounds = 200
	rt.Run(func(c *Ctx) {
		for r := 0; r < rounds; r++ {
			for i := range cells {
				i := i
				c.Spawn(func(*Ctx) { cells[i]++ }, InOut(&cells[i]))
			}
		}
	})
	for i, v := range cells {
		if v != rounds {
			t.Fatalf("cells[%d] = %v, want %d", i, v, rounds)
		}
	}
}
