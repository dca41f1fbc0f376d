package main

import (
	"runtime"
	"time"

	"repro"
	"repro/internal/platform"
)

// sizing is everything that fixes how much work a run does. P bounds
// workers plus load-generating goroutines; seconds is the nominal
// measured time of one workload (all phases), which each workload
// turns into fixed operation counts through its nominal rates, so two
// runs with the same flags do exactly the same work.
type sizing struct {
	P       int
	seconds float64
	seed    int64
	smoke   bool
}

// Shares of sizing.seconds. Every instance is set up, warmed up and
// measured for one window: seven at the workload's own worker count,
// three at one worker (for speedup_vs_1worker) and, where the
// efficiency reference needs a runtime, three of that.
const (
	mainInstances   = 7
	mainWindowShare = 0.09
	oneInstances    = 3
	oneWindowShare  = 0.07
	refInstances    = 3
	refWindowShare  = 0.045
	warmupShare     = 0.02
)

// opsFor turns a nominal rate (operations per second on the reference
// host) and a share of the run into a fixed operation count, rounded
// down to a multiple of quantum and never below one quantum.
func (sz sizing) opsFor(perSecond, share float64, quantum int) int {
	n := int(perSecond*sz.seconds*share) / quantum * quantum
	return max(n, quantum)
}

// insertQueueCap sizes the scheduler's insertion queue so that no
// workload ever fills it. With the default of 256 entries spawn_flat
// overflows it constantly, and the overflow path (Sync.Add taking the
// delegation lock itself while a worker waits for its turn on it)
// loses a lock hand-off about once in fifty million spawns at two
// workers: the creator then spins on a full queue and the other worker
// on a turn that never comes. That is a defect of the runtime, found
// by this benchmark and left for its own issue; until it is fixed the
// benchmark keeps every workload off that path, because a run that
// hangs measures nothing. spsc.push_full_ratio still drives a queue
// of the default size.
const insertQueueCap = 4096

// newRuntime builds every workload's runtime: defaults, but for the
// worker count, the insertion-queue size and what the workload adds.
func newRuntime(workers int, opts ...repro.Option) *repro.Runtime {
	return repro.New(append([]repro.Option{repro.WithWorkers(workers), repro.WithSPSCCap(insertQueueCap)}, opts...)...)
}

// phase says which of a workload's configurations to build.
type phase int

const (
	phaseMain phase = iota // the workload's own worker count
	phaseOne               // one worker, everything else the same
	phaseRef               // the efficiency reference, where it needs a runtime
)

// workload is one benchmark workload in one phase. setup builds the
// runtime, the data and any template and runs the discarded warm-up
// window; window runs one window of the phase's fixed operation count
// with no recorder in reach and verifies its output; windowTraced
// does the same with spans.
type workload interface {
	setup() error
	window() (win, error)
	windowTraced(tr *tracer) (win, error)
	close()
}

// win is what one window measured. A window that fails verification
// returns an error instead.
type win struct {
	ops     int        // operations completed and verified
	timed   timed      // wall, CPU and malloc deltas of the timed part
	lat     *recorder  // latency samples of the window, nanoseconds
	extra   extraStats // workload-specific counts (qos_mix)
	workers int
}

// extraStats carries the counts only qos_mix produces.
type extraStats struct {
	issued, missed int     // interactive requests issued / past the limit
	lagP99us       float64 // open-loop generator lateness
}

// timed brackets the timed part of a window: verification, resets of
// verification state and sample sorting stay outside it.
type timed struct {
	wall    int64
	cpu     time.Duration
	mallocs uint64

	t0   int64
	cpu0 time.Duration
	m0   uint64
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func (t *timed) start() {
	t.m0 = mallocs()
	t.cpu0, _ = platform.ProcessCPUTime()
	t.t0 = now()
}

func (t *timed) stop() {
	t.wall = now() - t.t0
	c, _ := platform.ProcessCPUTime()
	t.cpu = c - t.cpu0
	t.mallocs = mallocs() - t.m0
}

// winStats are one window's values of the per-window metrics.
type winStats struct {
	Ops         int     `json:"ops"`
	WallS       float64 `json:"wall_s"`
	Throughput  float64 `json:"throughput_ops_s"`
	P50us       float64 `json:"latency_p50_us"`
	Tailus      float64 `json:"latency_p99_us"`
	TailPct     float64 `json:"tail_percentile"`
	Samples     int     `json:"latency_samples"`
	CPUusPerOp  float64 `json:"cpu_us_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	SLOMiss     float64 `json:"slo_miss_ratio"`
	LagP99us    float64 `json:"gen_lag_p99_us"`
}

func statsOf(w win) winStats {
	s := w.lat.sorted()
	p := tailPercentile(len(s))
	ops := float64(w.ops)
	st := winStats{
		Ops:         w.ops,
		WallS:       float64(w.timed.wall) / 1e9,
		Throughput:  ops / (float64(w.timed.wall) / 1e9),
		P50us:       medianInt(s) / 1e3,
		Tailus:      float64(rankValue(s, p)) / 1e3,
		TailPct:     p,
		Samples:     len(s),
		CPUusPerOp:  float64(w.timed.cpu.Microseconds()) / ops,
		AllocsPerOp: float64(w.timed.mallocs) / ops,
		LagP99us:    w.extra.lagP99us,
	}
	if w.extra.issued > 0 {
		st.SLOMiss = float64(w.extra.missed) / float64(w.extra.issued)
	}
	return st
}

// col extracts one metric across windows.
func col(ws []winStats, f func(winStats) float64) []float64 {
	vs := make([]float64, len(ws))
	for i, w := range ws {
		vs[i] = f(w)
	}
	return vs
}

// memHeldMB is the memory the process holds live after a collection:
// heap objects, stacks and the allocator's span and cache records.
// MemStats.Sys moves by a third between identical runs with how far
// the heap happened to grow before each collection, and Sys less idle
// heap still by a sixth with how full the spans in use happen to be.
func memHeldMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc+m.StackInuse+m.MSpanInuse+m.MCacheInuse) / (1 << 20)
}
