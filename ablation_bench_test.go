package repro_test

// Ablation benchmarks for the individual design choices inside the
// optimized runtime, beyond the paper's figure-level variants:
//
//   - the number of SPSC insertion queues (one global vs one per NUMA
//     node vs one per worker; paper §3.1 chooses per-NUMA),
//   - the allocator refill batch (jemalloc tcache-fill analog),
//   - FIFO vs LIFO unsynchronized policy under a dependency-heavy load,
//   - the taskloop grain (chunk size) against the adaptive default.

import (
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/workloads"
)

// runTaskStorm drives the miniAMR-like insertion pattern: one creator,
// many short tasks.
func runTaskStorm(b *testing.B, cfg core.Config, tasks int) {
	rt := core.New(cfg)
	defer rt.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Run(func(c *core.Ctx) {
			for k := 0; k < tasks; k++ {
				c.Spawn(func(*core.Ctx) {})
			}
			c.Taskwait()
		})
	}
	b.StopTimer()
	b.ReportMetric(float64(tasks), "tasks/op")
}

func BenchmarkAblationSPSCQueues(b *testing.B) {
	const workers = 8
	for _, numa := range []int{1, 2, workers} {
		b.Run(fmt.Sprintf("queues=%d", numa), func(b *testing.B) {
			cfg := core.ConfigFor(core.VariantOptimized, workers, numa)
			runTaskStorm(b, cfg, 5000)
		})
	}
}

func BenchmarkAblationSPSCCapacity(b *testing.B) {
	const workers = 8
	for _, cap := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			cfg := core.ConfigFor(core.VariantOptimized, workers, 2)
			cfg.SPSCCap = cap
			runTaskStorm(b, cfg, 5000)
		})
	}
}

func BenchmarkAblationAllocatorBatch(b *testing.B) {
	type big struct{ pad [256]byte }
	for _, batch := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			p := alloc.NewPooled[big](4, batch)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					o := p.Get(0)
					p.Put(0, o)
				}
			})
		})
	}
}

func BenchmarkAblationPolicyFIFOvsLIFO(b *testing.B) {
	for _, pol := range []struct {
		name string
		kind core.PolicyKind
	}{{"fifo", core.PolicyFIFO}, {"lifo", core.PolicyLIFO}} {
		b.Run(pol.name, func(b *testing.B) {
			cfg := core.ConfigFor(core.VariantOptimized, 8, 2)
			cfg.Policy = pol.kind
			rt := core.New(cfg)
			defer rt.Close()
			w := workloads.NewCholesky(96, 24)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Reset()
				w.Run(rt)
			}
		})
	}
}

// BenchmarkAblationTaskloopGrain sweeps the work-sharing loop's chunk
// size on a 1e5-element dot product with a reduction: tiny grains
// expose the per-chunk claim cost, huge grains starve the late
// joiners, and grain=0 is the adaptive default the runtime picks.
func BenchmarkAblationTaskloopGrain(b *testing.B) {
	const iters = 100_000
	x, y := make([]float64, iters), make([]float64, iters)
	want := 0.0
	for i := range x {
		x[i], y[i] = float64(1+i%7), float64(1+i%5)
		want += x[i] * y[i]
	}
	for _, grain := range []int{16, 256, 4096, 0} {
		name := fmt.Sprintf("grain=%d", grain)
		if grain == 0 {
			name = "grain=adaptive"
		}
		b.Run(name, func(b *testing.B) {
			rt := core.New(core.ConfigFor(core.VariantOptimized, 8, 2))
			defer rt.Close()
			var result float64
			chunk := func(cc *core.Ctx, lo, hi int) {
				s := 0.0
				for i := lo; i < hi; i++ {
					s += x[i] * y[i]
				}
				cc.ReductionBuffer(&result)[0] += s
			}
			for i := 0; i < b.N; i++ {
				result = 0
				err := rt.Run(func(c *core.Ctx) {
					c.Loop(0, iters, grain, chunk, core.RedSpec(&result, 1, deps.OpSum))
					c.Taskwait()
				})
				if err != nil || result != want {
					b.Fatalf("dot product = %v (err %v), want %v", result, err, want)
				}
			}
		})
	}
}

// BenchmarkAblationPinning measures the OS-thread pinning substitution.
func BenchmarkAblationPinning(b *testing.B) {
	for _, pin := range []bool{true, false} {
		b.Run(fmt.Sprintf("pin=%v", pin), func(b *testing.B) {
			cfg := core.ConfigFor(core.VariantOptimized, 8, 2)
			cfg.PinWorkers = pin
			runTaskStorm(b, cfg, 5000)
		})
	}
}
