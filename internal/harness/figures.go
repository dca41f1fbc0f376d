package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// FigureDef declares one of the paper's evaluation figures: four
// benchmark panels on one machine with one set of series.
type FigureDef struct {
	Name       string
	Machine    platform.Machine
	Benchmarks []string
	Variants   []core.Variant
	Labels     []string
}

// Figures returns the definitions of Figures 4-9 exactly as laid out in
// the paper: Figures 4-6 are the per-component ablation on the three
// machines, Figures 7-9 compare against the OpenMP-runtime stand-ins
// (GCC/GOMP → blocking central queue, LLVM/Intel/AOCC → work stealing;
// see DESIGN.md for the substitution rationale).
func Figures() []FigureDef {
	ablation := core.Variants()
	ablationLabels := []string{"optimized", "w/o jemalloc", "w/o wait-free dependencies", "w/o DTLock"}
	return []FigureDef{
		{
			Name: "figure4", Machine: platform.IntelXeon,
			Benchmarks: []string{"lulesh", "dotproduct", "miniamr", "cholesky"},
			Variants:   ablation, Labels: ablationLabels,
		},
		{
			Name: "figure5", Machine: platform.AMDRome,
			Benchmarks: []string{"nbody", "hpccg", "miniamr", "matmul"},
			Variants:   ablation, Labels: ablationLabels,
		},
		{
			Name: "figure6", Machine: platform.Graviton2,
			Benchmarks: []string{"heat", "hpccg", "miniamr", "matmul"},
			Variants:   ablation, Labels: ablationLabels,
		},
		{
			Name: "figure7", Machine: platform.IntelXeon,
			Benchmarks: []string{"heat", "dotproduct", "miniamr", "cholesky"},
			Variants: []core.Variant{core.VariantOptimized, core.VariantGOMPLike,
				core.VariantLLVMLike, core.VariantIntelLike},
			Labels: []string{"Nanos6", "GCC", "LLVM", "Intel"},
		},
		{
			Name: "figure8", Machine: platform.AMDRome,
			Benchmarks: []string{"hpccg", "nbody", "miniamr", "matmul"},
			Variants: []core.Variant{core.VariantIntelLike, core.VariantOptimized,
				core.VariantGOMPLike, core.VariantLLVMLike},
			Labels: []string{"AOCC", "Nanos6", "GCC", "LLVM"},
		},
		{
			Name: "figure9", Machine: platform.Graviton2,
			Benchmarks: []string{"heat", "hpccg", "miniamr", "matmul"},
			Variants: []core.Variant{core.VariantOptimized, core.VariantGOMPLike,
				core.VariantLLVMLike},
			Labels: []string{"Nanos6", "GCC", "LLVM"},
		},
	}
}

// FigureByName returns a figure definition ("figure4".."figure9").
func FigureByName(name string) (FigureDef, bool) {
	for _, f := range Figures() {
		if f.Name == name {
			return f, true
		}
	}
	return FigureDef{}, false
}

// Scale selects problem sizes: Quick for CI-style runs on small hosts,
// Full for the paper-shaped sweep.
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

// panelShape holds a benchmark's constant problem size and its block
// sweep for a scale.
type panelShape struct {
	size   workloads.Size
	blocks []int
}

// shapes returns per-benchmark sweep shapes. Block sweeps are geometric,
// covering roughly two orders of magnitude of granularity like the
// paper's 2^13..2^30 instruction axis (scaled to this substrate).
func shapes(s Scale) map[string]panelShape {
	if s == Full {
		return map[string]panelShape{
			"dotproduct": {workloads.Size{N: 1 << 22}, []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18}},
			"heat":       {workloads.Size{N: 1024, Steps: 16}, []int{8, 16, 32, 64, 128, 256}},
			"matmul":     {workloads.Size{N: 512}, []int{8, 16, 32, 64, 128}},
			"cholesky":   {workloads.Size{N: 512}, []int{16, 32, 64, 128}},
			"hpccg":      {workloads.Size{N: 1 << 18, Steps: 30}, []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16}},
			"nbody":      {workloads.Size{N: 4096, Steps: 4}, []int{32, 64, 128, 256, 512}},
			"lulesh":     {workloads.Size{N: 1 << 19, Steps: 12}, []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16}},
			"miniamr":    {workloads.Size{N: 1 << 19, Steps: 12}, []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16}},
		}
	}
	return map[string]panelShape{
		"dotproduct": {workloads.Size{N: 1 << 16}, []int{1 << 7, 1 << 10, 1 << 13}},
		"heat":       {workloads.Size{N: 128, Steps: 4}, []int{8, 32, 64}},
		"matmul":     {workloads.Size{N: 96}, []int{8, 24, 48}},
		"cholesky":   {workloads.Size{N: 96}, []int{12, 24, 48}},
		"hpccg":      {workloads.Size{N: 1 << 13, Steps: 10}, []int{1 << 7, 1 << 9, 1 << 11}},
		"nbody":      {workloads.Size{N: 512, Steps: 2}, []int{16, 64, 128}},
		"lulesh":     {workloads.Size{N: 1 << 14, Steps: 4}, []int{1 << 7, 1 << 9, 1 << 11}},
		"miniamr":    {workloads.Size{N: 1 << 14, Steps: 4}, []int{1 << 7, 1 << 9, 1 << 11}},
	}
}

// RunFigure measures all four panels of a figure at the given scale and
// writes their rows to w.
func RunFigure(def FigureDef, scale Scale, workerLimit, repeats int, verify bool, w io.Writer) ([]Panel, error) {
	sh := shapes(scale)
	var panels []Panel
	for _, bench := range def.Benchmarks {
		shape, ok := sh[bench]
		if !ok {
			return nil, fmt.Errorf("harness: no sweep shape for %q", bench)
		}
		panel, err := RunSweep(SweepConfig{
			Figure:      def.Name,
			Benchmark:   bench,
			Machine:     def.Machine,
			WorkerLimit: workerLimit,
			Size:        shape.size,
			Blocks:      shape.blocks,
			Variants:    def.Variants,
			Labels:      def.Labels,
			Repeats:     repeats,
			Verify:      verify,
		})
		if err != nil {
			return nil, err
		}
		if w != nil {
			panel.WriteRows(w)
			fmt.Fprintln(w)
		}
		panels = append(panels, panel)
	}
	return panels, nil
}

// TraceResult is the outcome of one traced run (Figures 10-11).
type TraceResult struct {
	Label    string
	Trace    *trace.Trace
	Summary  *trace.Summary
	Timeline string
}

// RunTraced executes the miniAMR benchmark once on a traced runtime of
// the given scheduler configuration, reproducing the Figure 10 trace
// captures (DTLock vs PTLock) and, with noise set, the Figure 11 OS
// noise experiment.
func RunTraced(label string, schedKind core.SchedulerKind, machine platform.Machine,
	workerLimit int, size workloads.Size, block int, noise core.NoiseConfig) (TraceResult, error) {
	cfg := core.ConfigFor(core.VariantOptimized, machine.Workers(workerLimit), machine.NUMANodes)
	cfg.Scheduler = schedKind
	cfg.TraceCapacity = 1 << 18
	cfg.Noise = noise
	w, err := workloads.Build("miniamr", size, block)
	if err != nil {
		return TraceResult{}, err
	}
	rt := core.New(cfg)
	w.Reset()
	err = w.Run(rt)
	// The snapshot is taken after Close: a worker may still emit after
	// the run's last task completed, until the pool has stopped, and
	// Snapshot reads the per-core buffers those emissions append to.
	rt.Close()
	if err != nil {
		return TraceResult{}, err
	}
	if err := w.Verify(); err != nil {
		return TraceResult{}, err
	}
	tr := rt.Tracer().Snapshot()
	return TraceResult{
		Label:    label,
		Trace:    tr,
		Summary:  trace.Analyze(tr),
		Timeline: trace.Timeline(tr, 100),
	}, nil
}

// Section34Result quantifies the §3.4 microbenchmark claims: scheduling
// operation throughput of the DTLock-based scheduler vs the PTLock-based
// one, and SPSC-buffered insertion vs serialized insertion.
type Section34Result struct {
	DTLockOpsPerSec    float64
	PTLockOpsPerSec    float64
	SchedulingSpeedup  float64
	BufferedAddsPerSec float64
	SerialAddsPerSec   float64
	InsertionSpeedup   float64
}

// RunSection34 measures scheduler operation throughput with empty tasks:
// pure runtime overhead, the quantity the paper's microbenchmark reports
// ("a fourfold speedup on task scheduling using a DTLock compared to a
// PTLock, and a twelvefold speedup compared to serial task insertion").
func RunSection34(workers, tasks int) (Section34Result, error) {
	measure := func(k core.SchedulerKind) (float64, error) {
		cfg := core.Config{Workers: workers, NUMANodes: 2, Scheduler: k}
		rt := core.New(cfg)
		defer rt.Close()
		start := time.Now()
		err := rt.Run(func(c *core.Ctx) {
			for i := 0; i < tasks; i++ {
				c.Spawn(func(*core.Ctx) {})
			}
			c.Taskwait()
		})
		if err != nil {
			return 0, fmt.Errorf("§3.4 run on %v scheduler: %w", k, err)
		}
		return float64(tasks) / time.Since(start).Seconds(), nil
	}
	var r Section34Result
	var err error
	if r.DTLockOpsPerSec, err = measure(core.SchedSyncDTLock); err != nil {
		return r, err
	}
	if r.PTLockOpsPerSec, err = measure(core.SchedCentralPTLock); err != nil {
		return r, err
	}
	r.SchedulingSpeedup = r.DTLockOpsPerSec / r.PTLockOpsPerSec

	// Insertion path: buffered (SPSC per NUMA node) vs fully serialized
	// (every Add through the central lock). The creator-side cost is what
	// the twelvefold claim is about, so measure creation throughput.
	r.BufferedAddsPerSec = r.DTLockOpsPerSec
	if r.SerialAddsPerSec, err = measure(core.SchedBlocking); err != nil {
		return r, err
	}
	r.InsertionSpeedup = r.BufferedAddsPerSec / r.SerialAddsPerSec
	return r, nil
}
