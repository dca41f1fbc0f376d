// Package workloads implements the eight benchmarks of the paper's
// evaluation (§6.1) as task graphs over the runtime's public API —
// DotProduct, Heat (Gauss-Seidel), HPCCG, a LULESH proxy, a miniAMR
// proxy, Matmul, NBody, and Cholesky. The serving scenarios beyond the
// paper (closed-loop compiled graphs, the two-class QoS mix, the
// timer-parked echo proxy) are workloads of the benchmark of record
// (go run ./benchmark), which drives them through the public API.
//
// Every workload runs a constant problem size while the task granularity
// (work units per task) varies — the paper's experimental axis. Each
// provides a serial reference execution for verification: with correct
// dependencies the parallel execution must match the serial one exactly
// (or within floating-point tolerance where commutative accumulation
// makes summation order nondeterministic).
package workloads

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/deps"
)

// Workload is one benchmark instance: fixed problem size, fixed
// granularity, reusable across runs.
type Workload interface {
	// Name is the benchmark's short name ("cholesky", "heat", ...).
	Name() string
	// Reset reinitializes the data to the deterministic initial state.
	Reset()
	// Run executes one full instance through the runtime. It returns
	// the submission's aggregate error (recovered task panics, task
	// errors); numerical mismatches are Verify's department.
	Run(rt *core.Runtime) error
	// RunSerial executes the reference implementation on the same data.
	RunSerial()
	// Verify checks the result of the last Run against the reference.
	// It must be called on a freshly Reset+Run instance.
	Verify() error
	// TotalWork returns the work units of one Run (the performance
	// numerator; unit: inner-loop element updates).
	TotalWork() float64
	// Tasks returns the approximate number of tasks of one Run.
	Tasks() int
}

// Grain reports work units per task, the paper's granularity axis.
func Grain(w Workload) float64 {
	t := w.Tasks()
	if t == 0 {
		return 0
	}
	return w.TotalWork() / float64(t)
}

// Size scales a workload's problem. Benchmarks interpret N as their
// natural dimension (elements, grid side, matrix side, particles) and
// Steps as the number of iterations/timesteps.
type Size struct {
	N     int
	Steps int
}

// Builder constructs a workload with a given problem size and block
// (granularity) parameter.
type Builder func(size Size, block int) Workload

// Registry maps benchmark names to builders.
var Registry = map[string]Builder{
	"dotproduct": func(s Size, b int) Workload { return NewDotProduct(s.N, b) },
	"heat":       func(s Size, b int) Workload { return NewHeat(s.N, b, s.Steps) },
	"matmul":     func(s Size, b int) Workload { return NewMatmul(s.N, b) },
	"cholesky":   func(s Size, b int) Workload { return NewCholesky(s.N, b) },
	"hpccg":      func(s Size, b int) Workload { return NewHPCCG(s.N, b, s.Steps) },
	"nbody":      func(s Size, b int) Workload { return NewNBody(s.N, b, s.Steps) },
	"lulesh":     func(s Size, b int) Workload { return NewLulesh(s.N, b, s.Steps) },
	"miniamr":    func(s Size, b int) Workload { return NewMiniAMR(s.N, b, s.Steps) },
}

// Build constructs a named workload or returns an error listing the
// available names.
func Build(name string, size Size, block int) (Workload, error) {
	b, ok := Registry[name]
	if !ok {
		names := make([]string, 0, len(Registry))
		for n := range Registry {
			names = append(names, n)
		}
		return nil, fmt.Errorf("workloads: unknown benchmark %q (have %v)", name, names)
	}
	return b(size, block), nil
}

// lcg fills dst with deterministic pseudo-random values in (0, 1),
// used for reproducible initial data across Reset calls.
func lcg(dst []float64, seed uint64) {
	s := seed*2862933555777941757 + 3037000493
	for i := range dst {
		s = s*6364136223846793005 + 1442695040888963407
		dst[i] = float64(s>>11) / float64(1<<53)
	}
}

// almostEqual compares with relative tolerance for results whose
// accumulation order is nondeterministic (commutative accesses).
func almostEqual(a, b, relTol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := 1.0
	if a > 1 || a < -1 {
		m = a
		if m < 0 {
			m = -m
		}
	}
	return d <= relTol*m
}

// redSum aliases the sum reduction for brevity inside the workload files.
const redSum = deps.OpSum
