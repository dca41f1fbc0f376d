// Cholesky: the paper's canonical irregular task DAG. A tiled Cholesky
// factorization is expressed with four kernels whose ordering emerges
// entirely from tile accesses (potrf → trsm → syrk/gemm), then verified
// against the original matrix.
//
// Run with -n and -block to feel the granularity trade-off the paper
// studies: small tiles expose parallelism but stress the runtime, large
// tiles starve the workers.
package main

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/workloads"
)

func main() {
	n := flag.Int("n", 384, "matrix dimension")
	block := flag.Int("block", 32, "tile dimension (task granularity)")
	workers := flag.Int("workers", runtime.NumCPU(), "worker threads")
	flag.Parse()

	rt := repro.New(repro.WithTopology(repro.Topology{Workers: *workers, NUMANodes: 2}))
	defer rt.Close()

	w := workloads.NewCholesky(*n, *block)
	w.Reset()
	start := time.Now()
	if err := w.Run(rt); err != nil {
		fmt.Println("FAILED:", err)
		return
	}
	elapsed := time.Since(start)

	if err := w.Verify(); err != nil {
		fmt.Println("FAILED:", err)
		return
	}
	gflops := w.TotalWork() * 2 / elapsed.Seconds() / 1e9
	fmt.Printf("cholesky %dx%d, tiles %dx%d: %d tasks in %v (%.2f GFLOP/s), verified\n",
		*n, *n, *block, *block, w.Tasks(), elapsed.Round(time.Microsecond), gflops)
}
