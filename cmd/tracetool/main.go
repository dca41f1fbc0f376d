// Command tracetool reproduces the paper's trace studies with the
// CTF-inspired instrumentation backend (§5):
//
//	tracetool -compare   Figure 10: miniAMR under the DTLock scheduler
//	                     vs the PTLock scheduler — serve activity,
//	                     starvation, and ASCII timelines.
//	tracetool -noise     Figure 11: an injected kernel interrupt stalls
//	                     the DTLock owner mid-service; the serve-gap
//	                     pattern changes around it.
//	tracetool -dump f    Decode and summarize a binary trace file;
//	                     node-continue and node-offer events
//	                     (compiled-graph nodes run as calls, not tasks)
//	                     are counted beside tasks, and so are cell-steal
//	                     events (offers taken from another serving
//	                     slot's hand-off cells, each made a task).
//
// Traces can be saved with -save for later inspection.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	var (
		compare = flag.Bool("compare", false, "figure 10: DTLock vs PTLock scheduler traces")
		noise   = flag.Bool("noise", false, "figure 11: OS-noise injection on the lock owner")
		dump    = flag.String("dump", "", "decode and summarize a saved trace file")
		save    = flag.String("save", "", "save the (first) captured trace to this file")
		workers = flag.Int("workers", 16, "simulated cores")
		n       = flag.Int("n", 1<<15, "miniAMR cells")
		steps   = flag.Int("steps", 6, "miniAMR steps")
		block   = flag.Int("block", 1<<8, "miniAMR block size")
	)
	flag.Parse()

	machine := platform.Machine{Name: "traced", Cores: *workers, NUMANodes: 2}
	size := workloads.Size{N: *n, Steps: *steps}

	switch {
	case *dump != "":
		f, err := os.Open(*dump)
		fatal(err)
		tr, err := trace.Read(f)
		fatal(err)
		fatal(f.Close())
		sum := trace.Analyze(tr)
		tot := sum.Totals()
		fmt.Print(sum.String())
		fmt.Printf("%s: %d graph nodes ran as calls inside %d tasks\n",
			trace.KNodeContinue, tot.Continues, tot.TaskCount)
		fmt.Printf("%s: %d episodes ran %d tasks on creating threads\n",
			trace.KSpawnHelp, tot.SpawnHelps, tot.SpawnHelped)
		fmt.Printf("%s: %d offered graph nodes taken back and run as calls\n",
			trace.KNodeOffer, tot.Offers)
		fmt.Printf("%s: %d offers taken from another slot's hand-off cells as tasks\n",
			trace.KCellSteal, tot.CellSteals)
		fmt.Print(trace.Timeline(tr, 100))

	case *compare:
		dt, err := harness.RunTraced("DTLock", core.SchedSyncDTLock, machine, 0,
			size, *block, core.NoiseConfig{})
		fatal(err)
		pt, err := harness.RunTraced("PTLock", core.SchedCentralPTLock, machine, 0,
			size, *block, core.NoiseConfig{})
		fatal(err)
		for _, r := range []harness.TraceResult{dt, pt} {
			tot := r.Summary.Totals()
			fmt.Printf("== %s scheduler ==\n", r.Label)
			fmt.Printf("tasks %d, serves %d, drains %d (moving %d tasks), starvation %.1f%%\n",
				tot.TaskCount, tot.Serves, tot.Drains, tot.DrainedTasks,
				r.Summary.StarvationPct())
			fmt.Print(r.Timeline)
			fmt.Println()
		}
		fmt.Printf("starvation: DTLock %.1f%% vs PTLock %.1f%% (paper Fig. 10: the PTLock\n"+
			"version starves most cores because adding and getting a ready task\n"+
			"contend on the same lock)\n",
			dt.Summary.StarvationPct(), pt.Summary.StarvationPct())
		maybeSave(*save, dt.Trace)

	case *noise:
		res, err := harness.RunTraced("DTLock+noise", core.SchedSyncDTLock, machine, 0,
			size, *block, core.NoiseConfig{AfterServes: 50, Duration: 2 * time.Millisecond})
		fatal(err)
		tot := res.Summary.Totals()
		fmt.Printf("== %s ==\n", res.Label)
		fmt.Printf("tasks %d, serves %d, interrupts %d (%.3f ms stolen)\n",
			tot.TaskCount, tot.Serves, tot.Interrupts, float64(tot.InterruptNS)/1e6)
		gaps := trace.ServeGaps(res.Trace)
		if len(gaps) > 0 {
			var maxGap int64
			for _, g := range gaps {
				if g > maxGap {
					maxGap = g
				}
			}
			fmt.Printf("serve gaps: %d, largest %.3f ms (the interrupt shows up as the\n"+
				"outlier gap; afterwards the accumulated task surplus feeds all cores,\n"+
				"paper Fig. 11)\n", len(gaps), float64(maxGap)/1e6)
		}
		fmt.Print(res.Timeline)
		maybeSave(*save, res.Trace)

	default:
		flag.Usage()
		os.Exit(2)
	}
}

func maybeSave(path string, tr *trace.Trace) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	fatal(err)
	fatal(tr.Write(f))
	fatal(f.Close())
	fmt.Printf("trace saved to %s\n", path)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracetool: %v\n", err)
		os.Exit(1)
	}
}
