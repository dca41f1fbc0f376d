package workloads

import (
	"testing"

	"repro/internal/core"
)

// smallSizes returns a quick test instance per benchmark.
func smallSizes() map[string]struct {
	size  Size
	block int
} {
	return map[string]struct {
		size  Size
		block int
	}{
		"dotproduct": {Size{N: 4096, Steps: 1}, 256},
		"heat":       {Size{N: 32, Steps: 4}, 8},
		"matmul":     {Size{N: 48, Steps: 1}, 12},
		"cholesky":   {Size{N: 48, Steps: 1}, 12},
		"hpccg":      {Size{N: 1024, Steps: 25}, 128},
		"nbody":      {Size{N: 128, Steps: 3}, 32},
		"lulesh":     {Size{N: 512, Steps: 5}, 64},
		"miniamr":    {Size{N: 512, Steps: 6}, 64},
	}
}

func newTestRuntime(v core.Variant) *core.Runtime {
	cfg := core.ConfigFor(v, 4, 2)
	cfg.PinWorkers = false
	return core.New(cfg)
}

// TestAllWorkloadsVerifyOptimized runs every benchmark on the optimized
// runtime and checks the parallel result against the serial reference.
func TestAllWorkloadsVerifyOptimized(t *testing.T) {
	rt := newTestRuntime(core.VariantOptimized)
	defer rt.Close()
	for name, tc := range smallSizes() {
		name, tc := name, tc
		t.Run(name, func(t *testing.T) {
			w, err := Build(name, tc.size, tc.block)
			if err != nil {
				t.Fatal(err)
			}
			w.Reset()
			if err := w.Run(rt); err != nil {
				t.Fatal(err)
			}
			if err := w.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAllWorkloadsVerifyAcrossVariants cross-checks every benchmark on
// every ablation variant: the dependency semantics must be identical no
// matter which implementation enforces them.
func TestAllWorkloadsVerifyAcrossVariants(t *testing.T) {
	for _, v := range core.Variants()[1:] { // optimized covered above
		v := v
		t.Run(string(v), func(t *testing.T) {
			rt := newTestRuntime(v)
			defer rt.Close()
			for name, tc := range smallSizes() {
				w, err := Build(name, tc.size, tc.block)
				if err != nil {
					t.Fatal(err)
				}
				w.Reset()
				if err := w.Run(rt); err != nil {
					t.Fatal(err)
				}
				if err := w.Verify(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		})
	}
}

// TestWorkloadsOnComparisonRuntimes exercises the GOMP-like and
// LLVM-like baseline runtimes on two representative benchmarks.
func TestWorkloadsOnComparisonRuntimes(t *testing.T) {
	for _, v := range []core.Variant{core.VariantGOMPLike, core.VariantLLVMLike} {
		v := v
		t.Run(string(v), func(t *testing.T) {
			rt := newTestRuntime(v)
			defer rt.Close()
			for _, name := range []string{"heat", "cholesky"} {
				tc := smallSizes()[name]
				w, _ := Build(name, tc.size, tc.block)
				w.Reset()
				if err := w.Run(rt); err != nil {
					t.Fatal(err)
				}
				if err := w.Verify(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		})
	}
}

func TestGranularityScalesWithBlock(t *testing.T) {
	small, _ := Build("matmul", Size{N: 64}, 8)
	large, _ := Build("matmul", Size{N: 64}, 32)
	if Grain(small) >= Grain(large) {
		t.Fatalf("grain(8)=%v !< grain(32)=%v", Grain(small), Grain(large))
	}
	if small.TotalWork() != large.TotalWork() {
		t.Fatalf("total work changed with block size: %v vs %v",
			small.TotalWork(), large.TotalWork())
	}
}

func TestBuildUnknownBenchmark(t *testing.T) {
	if _, err := Build("nope", Size{N: 8}, 2); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestBlockClamping(t *testing.T) {
	// Degenerate block sizes must be clamped, not crash.
	for name := range Registry {
		w, err := Build(name, Size{N: 64, Steps: 2}, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if w.Tasks() < 1 {
			t.Fatalf("%s: no tasks with oversized block", name)
		}
		w, err = Build(name, Size{N: 64, Steps: 2}, 0)
		if err != nil || w.Tasks() < 1 {
			t.Fatalf("%s: bad workload with zero block", name)
		}
	}
}

// TestRepeatedRunsAreReproducible runs a deterministic workload twice
// through the runtime and requires identical results.
func TestRepeatedRunsAreReproducible(t *testing.T) {
	rt := newTestRuntime(core.VariantOptimized)
	defer rt.Close()
	h1 := NewHeat(32, 8, 3)
	if err := h1.Run(rt); err != nil {
		t.Fatal(err)
	}
	first := append([]float64(nil), h1.grid...)
	h1.Reset()
	if err := h1.Run(rt); err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != h1.grid[i] {
			t.Fatalf("non-reproducible at %d: %v vs %v", i, first[i], h1.grid[i])
		}
	}
}
