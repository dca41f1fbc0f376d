// Command benchmark is the repository's benchmark of record: five
// workloads driven through the public repro API, each verified on
// every window, reporting ten end-to-end metrics from untraced windows,
// span-derived per-layer metrics from a traced pass, and layer-driver
// metrics from fixed-count loops over the internal packages. See
// README.md in this directory for what each number means and how to
// cite it.
//
//	go run ./benchmark -seed 1                     every workload, every end-to-end metric
//	go run ./benchmark -seed 1 -traced             ... plus the traced pass and the layer drivers
//	go run ./benchmark -seed 1 -workload heat_fine one workload, then one JSON line (BENCHMARK.json's contract)
//	go run ./benchmark -seed 1 -selfcheck          the whole set twice, compared against BENCHMARK.json's bounds
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"
)

// contractDeadline is when a -workload run gives up with a goroutine
// dump: a hung runtime is a result too.
const contractDeadline = 170 * time.Second

// workloadNames is the order workloads run in.
var workloadNames = []string{"spawn_flat", "heat_fine", "graph_closed", "qos_mix", "echo_paced"}

// spec builds a workload in a phase and measures the rate its work
// reaches with negligible per-task overhead, the denominator of
// fine_grain_efficiency. sampled says its traced pass records one
// request in sampleEvery.
type spec struct {
	make    func(sizing, phase) workload
	ideal   func(sizing) (float64, error)
	sampled bool
}

var specs = map[string]spec{
	"spawn_flat":   {newSpawnFlat, spawnFlatIdeal, true},
	"heat_fine":    {newHeatFine, heatFineIdeal, true},
	"graph_closed": {newGraphClosed, graphClosedIdeal, false},
	"qos_mix":      {newQosMix, qosMixIdeal, true},
	"echo_paced":   {newEchoPaced, echoPacedIdeal, false},
}

func main() {
	var (
		name      = flag.String("workload", "", "run only this workload and end with one JSON result line")
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", 18, "nominal measured seconds per workload")
		trace     = flag.Int("trace", 0, "with -workload: 1 reports the per-layer metrics instead of the end-to-end ones")
		traced    = flag.Bool("traced", false, "without -workload: also run the traced pass of every workload and the layer drivers")
		selfcheck = flag.Bool("selfcheck", false, "run the whole set twice and compare the medians against BENCHMARK.json's bounds")
		smoke     = flag.Bool("smoke", false, "tiny sizes: the whole set in a few seconds, for tests")
		outDir    = flag.String("out", "benchmark/out", "directory for results and trace files")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fatal(fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs of this host: the run would time the Go scheduler", runtime.GOMAXPROCS(0), runtime.NumCPU()))
	}
	P := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(P)
	sz := sizing{P: P, seconds: *seconds, seed: *seed, smoke: *smoke}
	hdr := newHeader(sz)
	hdr.print(os.Stdout)

	if !*selfcheck && *name == "" {
		os.Exit(runAll(sz, *traced, hdr, *outDir))
	}
	bj, err := readBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *selfcheck {
		os.Exit(runSelfcheck(sz, bj, hdr, *outDir))
	}
	if !slices.Contains(workloadNames, *name) {
		fatal(fmt.Errorf("unknown workload %q (have %v)", *name, workloadNames))
	}
	// The benchmark driver kills a run after 180 s and learns nothing
	// from it; a run that is still going shortly before that says where.
	time.AfterFunc(contractDeadline, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s still running after %v; goroutines:\n", *name, contractDeadline)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	os.Exit(runContract(*name, sz, *trace == 1, bj, hdr, *outDir))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
