// Heatmap: the Gauss-Seidel heat solver with the wavefront dependency
// pattern, plus a live look at the instrumentation backend: the run is
// traced and rendered as the ASCII timeline of paper Figures 10-11.
package main

import (
	"flag"
	"fmt"
	"runtime"

	"repro"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	n := flag.Int("n", 256, "grid side")
	block := flag.Int("block", 32, "tile side")
	steps := flag.Int("steps", 8, "Gauss-Seidel sweeps")
	workers := flag.Int("workers", runtime.NumCPU(), "worker threads")
	flag.Parse()

	rt := repro.New(
		repro.WithTopology(repro.Topology{Workers: *workers, NUMANodes: 2}),
		repro.WithTracing(1<<16),
	)
	defer rt.Close()

	w := workloads.NewHeat(*n, *block, *steps)
	w.Reset()
	if err := w.Run(rt); err != nil {
		fmt.Println("FAILED:", err)
		return
	}
	if err := w.Verify(); err != nil {
		fmt.Println("FAILED:", err)
		return
	}

	tr := rt.Tracer().Snapshot()
	sum := trace.Analyze(tr)
	fmt.Printf("heat %dx%d, %d sweeps, tiles %dx%d: %d tasks, verified\n\n",
		*n, *n, *steps, *block, *block, w.Tasks())
	fmt.Print(sum.String())
	fmt.Println()
	fmt.Print(trace.Timeline(tr, 96))
}
