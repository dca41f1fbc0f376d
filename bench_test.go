package repro_test

// The paper's evaluation, one benchmark per figure/table. Each
// Benchmark regenerates the corresponding experiment at quick scale and
// reports the paper's headline quantities as custom metrics:
//
//	BenchmarkFigure4..9        efficiency-vs-granularity panels
//	                           (finest-grain efficiency of the optimized
//	                           series, in %, as eff_fine_opt)
//	BenchmarkFigure10Traces    DTLock vs PTLock starvation percentages
//	BenchmarkFigure11Noise     interrupt count and serve-gap outlier
//	BenchmarkSection34*        DTLock vs PTLock scheduling speedup and
//	                           buffered vs serialized insertion speedup
//
// Absolute numbers depend on the host; the *shape* (who wins, where the
// fine-granularity cliff falls) is the reproduction target. Run
// cmd/repro -scale full for the paper-sized sweeps.

import (
	"io"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// benchWorkerLimit keeps simulated machines tractable on small hosts
// while preserving oversubscription-driven contention.
func benchWorkerLimit() int { return platform.DefaultLimit() }

func benchFigure(b *testing.B, name string) {
	def, ok := harness.FigureByName(name)
	if !ok {
		b.Fatalf("unknown figure %s", name)
	}
	for i := 0; i < b.N; i++ {
		panels, err := harness.RunFigure(def, harness.Quick, benchWorkerLimit(), 1, false, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		// Report the optimized/Nanos6 series' efficiency at the finest
		// granularity of the first panel: the paper's headline cell.
		first := panels[0]
		lead := first.Series[0]
		for _, s := range first.Series {
			if s.Label == "optimized" || s.Label == "Nanos6" {
				lead = s
			}
		}
		b.ReportMetric(lead.AtFinestGrain(), "eff_fine_opt_%")
		b.ReportMetric(lead.AtCoarsestGrain(), "eff_coarse_opt_%")
	}
}

func BenchmarkFigure4AblationXeon(b *testing.B)     { benchFigure(b, "figure4") }
func BenchmarkFigure5AblationRome(b *testing.B)     { benchFigure(b, "figure5") }
func BenchmarkFigure6AblationGraviton(b *testing.B) { benchFigure(b, "figure6") }
func BenchmarkFigure7RuntimesXeon(b *testing.B)     { benchFigure(b, "figure7") }
func BenchmarkFigure8RuntimesRome(b *testing.B)     { benchFigure(b, "figure8") }
func BenchmarkFigure9RuntimesGraviton(b *testing.B) { benchFigure(b, "figure9") }

func BenchmarkFigure10Traces(b *testing.B) {
	machine := platform.Machine{Name: "bench", Cores: benchWorkerLimit(), NUMANodes: 2}
	size := workloads.Size{N: 1 << 13, Steps: 4}
	for i := 0; i < b.N; i++ {
		dt, err := harness.RunTraced("DTLock", core.SchedSyncDTLock, machine, 0,
			size, 1<<7, core.NoiseConfig{})
		if err != nil {
			b.Fatal(err)
		}
		pt, err := harness.RunTraced("PTLock", core.SchedCentralPTLock, machine, 0,
			size, 1<<7, core.NoiseConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(dt.Summary.StarvationPct(), "dtlock_starv_%")
		b.ReportMetric(pt.Summary.StarvationPct(), "ptlock_starv_%")
	}
}

func BenchmarkFigure11Noise(b *testing.B) {
	machine := platform.Machine{Name: "bench", Cores: benchWorkerLimit(), NUMANodes: 2}
	size := workloads.Size{N: 1 << 13, Steps: 4}
	for i := 0; i < b.N; i++ {
		res, err := harness.RunTraced("noise", core.SchedSyncDTLock, machine, 0,
			size, 1<<7, core.NoiseConfig{AfterServes: 20, Duration: time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		tot := res.Summary.Totals()
		b.ReportMetric(float64(tot.Interrupts), "interrupts")
		gaps := trace.ServeGaps(res.Trace)
		var maxGap float64
		for _, g := range gaps {
			if float64(g) > maxGap {
				maxGap = float64(g)
			}
		}
		b.ReportMetric(maxGap/1e6, "max_serve_gap_ms")
	}
}

func BenchmarkSection34SchedulerComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := harness.RunSection34(benchWorkerLimit(), 20000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SchedulingSpeedup, "dtlock_vs_ptlock_x")
		b.ReportMetric(r.InsertionSpeedup, "buffered_vs_serial_x")
		b.ReportMetric(r.DTLockOpsPerSec, "dtlock_tasks/s")
	}
}
