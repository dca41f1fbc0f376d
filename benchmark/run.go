package main

import (
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
)

// metricValue is one metric of one workload: its median over windows
// (or its single value), the quartiles and the raw per-window values.
type metricValue struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func metricOf(name, unit string, values []float64) metricValue {
	q1, med, q3 := quartiles(values)
	return metricValue{name, unit, med, q1, q3, len(values), values}
}

// workloadResult is everything one untraced run of a workload measured.
// A failed verification fails every operation of the workload.
type workloadResult struct {
	Workload  string        `json:"workload"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Error     string        `json:"error,omitempty"`
	TailPct   float64       `json:"tail_percentile"`
	Metrics   []metricValue `json:"metrics"`
	Main      []winStats    `json:"main_instances"`
	One       []winStats    `json:"one_worker_instances"`
}

func (r *workloadResult) metric(name string) (metricValue, bool) {
	i := slices.IndexFunc(r.Metrics, func(m metricValue) bool { return m.Name == name })
	if i < 0 {
		return metricValue{}, false
	}
	return r.Metrics[i], true
}

func opsOf(ws []winStats) int {
	n := 0
	for _, w := range ws {
		n += w.Ops
	}
	return n
}

// runInstances builds n independent instances of a workload phase, one
// after the other, and measures one window on each. Where a runtime's
// structures and a workload's buffers land in memory shifts an
// instance's speed by more than its windows differ among themselves
// (up to a fifth on spawn_flat), so a run samples that luck n times and
// reports medians across instances. It returns the windows' stats, the
// set-up times, and the memory held at the end of the last window.
func runInstances(mk func(sizing, phase) workload, sz sizing, ph phase, n int) (stats []winStats, setups []float64, memMB float64, err error) {
	for i := 0; i < n && err == nil; i++ {
		t0 := now()
		w := mk(sz, ph)
		if err = w.setup(); err == nil {
			setups = append(setups, float64(now()-t0)/1e9)
			var r win
			if r, err = w.window(); err == nil {
				stats = append(stats, statsOf(r))
				memMB = memHeldMB()
			}
		}
		w.close()
		w = nil
		runtime.GC()
	}
	return stats, setups, memMB, err
}

// runWorkload measures a workload's end-to-end metrics with no tracer
// in reach: the P-worker instances, the one-worker instances and the
// efficiency reference.
func runWorkload(name string, sz sizing) *workloadResult {
	res := &workloadResult{Workload: name}
	fail := func(err error) *workloadResult {
		res.Error = err.Error()
		res.Failed = max(res.Attempted, 1)
		res.Attempted = res.Failed
		return res
	}
	main, setups, memMB, err := runInstances(specs[name].make, sz, phaseMain, mainInstances)
	res.Main, res.Attempted = main, opsOf(main)
	if err != nil {
		return fail(err)
	}
	one, _, _, err := runInstances(specs[name].make, sz, phaseOne, oneInstances)
	res.One = one
	res.Attempted += opsOf(one)
	if err != nil {
		return fail(fmt.Errorf("one worker: %w", err))
	}
	ideal, err := specs[name].ideal(sz)
	if err != nil {
		return fail(fmt.Errorf("efficiency reference: %w", err))
	}

	thr := func(s winStats) float64 { return s.Throughput }
	res.TailPct = main[0].TailPct
	res.Metrics = []metricValue{
		metricOf("setup_s", "s", setups),
		metricOf("throughput_ops_s", "ops/s", col(main, thr)),
		metricOf("latency_p50_us", "us", col(main, func(s winStats) float64 { return s.P50us })),
		metricOf("latency_p99_us", "us", col(main, func(s winStats) float64 { return s.Tailus })),
		metricOf("speedup_vs_1worker", "ratio", []float64{median(col(main, thr)) / median(col(one, thr))}),
		metricOf("fine_grain_efficiency", "ratio", []float64{median(col(main, thr)) / ideal}),
		metricOf("cpu_us_per_op", "us", col(main, func(s winStats) float64 { return s.CPUusPerOp })),
		metricOf("allocs_per_op", "count", col(main, func(s winStats) float64 { return s.AllocsPerOp })),
		metricOf("mem_sys_mb", "MB", []float64{memMB}),
	}
	if name == "qos_mix" {
		res.Metrics = append(res.Metrics,
			metricOf("slo_miss_ratio", "ratio", col(main, func(s winStats) float64 { return s.SLOMiss })))
	}
	return res
}

// tracedResult is the per-layer view of one workload: span-derived
// metrics, plus the untraced window's values of the metrics that are
// reported but not gated.
type tracedResult struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Error     string             `json:"error,omitempty"`
	Spans     int                `json:"spans"`
	Metrics   map[string]float64 `json:"metrics"`
}

// passTraced runs one untraced and one traced window of a workload on
// the same runtime and derives the span metrics; their throughput
// ratio is the tracing overhead. outDir, when not empty, receives the
// trace file.
func passTraced(name string, sz sizing, outDir string) *tracedResult {
	res := &tracedResult{Workload: name, Metrics: map[string]float64{}}
	fail := func(err error) *tracedResult {
		res.Error = err.Error()
		res.Attempted = max(res.Attempted, 1)
		res.Failed = res.Attempted
		return res
	}
	w := specs[name].make(sz, phaseMain)
	defer w.close()
	if err := w.setup(); err != nil {
		return fail(fmt.Errorf("setup: %w", err))
	}
	plain, err := w.window()
	res.Attempted = plain.ops
	if err != nil {
		return fail(err)
	}
	plainStats := statsOf(plain)
	tr := newTracer(64, 2048)
	tw, err := w.windowTraced(tr)
	res.Attempted += tw.ops
	if err != nil {
		return fail(fmt.Errorf("traced: %w", err))
	}
	flat, reqs := tr.finish()
	res.Spans = len(flat)
	if outDir != "" {
		if err := writeTrace(outDir, name, flat); err != nil {
			return fail(err)
		}
	}
	res.Metrics = spanMetrics(reqs, tw.workers, tw.timed.wall, specs[name].sampled)
	res.Metrics["trace.overhead_ratio"] = statsOf(tw).Throughput / plainStats.Throughput
	res.Metrics["latency_p99_us"] = plainStats.Tailus
	if name == "qos_mix" {
		res.Metrics["gen.lag_p99_us"] = plainStats.LagP99us
		res.Metrics["slo_miss_ratio"] = plainStats.SLOMiss
	}
	return res
}

// runAll is the full report: every workload's end-to-end metrics and,
// with traced, every traced pass and the layer drivers.
func runAll(sz sizing, traced bool, hdr header, outDir string) int {
	out := results{Header: hdr}
	for _, name := range workloadNames {
		r := runWorkload(name, sz)
		printWorkload(os.Stdout, r)
		out.Workloads = append(out.Workloads, r)
	}
	if traced {
		for _, name := range workloadNames {
			t := passTraced(name, sz, outDir)
			printTraced(os.Stdout, t)
			out.Traced = append(out.Traced, t)
		}
		out.Drivers = runDrivers(sz)
		printDrivers(os.Stdout, out.Drivers)
	}
	if err := out.store(outDir, fmt.Sprintf("results-seed%d.json", sz.seed)); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return out.exitCode()
}

// runContract runs one workload the way BENCHMARK.json's driver asks
// and ends with the one-line JSON result: the end-to-end metrics of an
// untraced run, or with layers the per-layer metrics of a traced pass
// (span metrics the workload does not emit come from a smoke-sized
// traced pass of their home workload) and the layer drivers.
func runContract(name string, sz sizing, layers bool, bj benchmarkJSON, hdr header, outDir string) int {
	out := results{Header: hdr}
	line := contractLine{Correct: true, Metrics: map[string]contractMetric{}}
	if !layers {
		r := runWorkload(name, sz)
		printWorkload(os.Stdout, r)
		out.Workloads = append(out.Workloads, r)
		line.Attempted, line.Failed = r.Attempted, r.Failed
		for _, m := range bj.EndToEnd {
			if v, ok := r.metric(m.Name); ok {
				line.Metrics[m.Name] = contractMetric{v.Median, m.Unit}
			}
		}
	} else {
		t := passTraced(name, sz, outDir)
		printTraced(os.Stdout, t)
		out.Traced = append(out.Traced, t)
		line.Attempted, line.Failed = t.Attempted, t.Failed
		values := maps.Clone(t.Metrics)
		small := sz
		small.smoke = true
		for _, home := range workloadNames {
			var missing []string
			for metric, from := range spanMetricHome {
				if _, have := values[metric]; from == home && !have {
					missing = append(missing, metric)
				}
			}
			if len(missing) == 0 {
				continue
			}
			h := passTraced(home, small, "")
			printTraced(os.Stdout, h)
			out.Traced = append(out.Traced, h)
			line.Attempted, line.Failed = line.Attempted+h.Attempted, line.Failed+h.Failed
			for _, metric := range missing {
				values[metric] = h.Metrics[metric]
			}
		}
		out.Drivers = runDrivers(sz)
		printDrivers(os.Stdout, out.Drivers)
		for _, d := range out.Drivers {
			values[d.Name] = d.Value
		}
		for _, m := range bj.PerLayer {
			if v, ok := values[m.Name]; ok {
				line.Metrics[m.Name] = contractMetric{v, m.Unit}
			}
		}
	}
	suffix := ""
	if layers {
		suffix = "-layers"
	}
	if err := out.store(outDir, fmt.Sprintf("results-%s-seed%d%s.json", name, sz.seed, suffix)); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if line.Failed > 0 {
		return 1 // the failure is printed above; there is no result to report
	}
	want := len(bj.EndToEnd)
	if layers {
		want = len(bj.PerLayer)
	}
	if len(line.Metrics) != want {
		fmt.Fprintf(os.Stderr, "benchmark: measured %d of the %d metrics BENCHMARK.json lists\n", len(line.Metrics), want)
		return 2
	}
	line.print(os.Stdout)
	return 0
}

// runSelfcheck runs the whole set twice in this process, the second
// time in reverse workload order, and compares every gated metric of
// every workload against its BENCHMARK.json bound: the benchmark's own
// A/A check. It exits non-zero when two runs of the same code differ
// by more than a change would be allowed to.
func runSelfcheck(sz sizing, bj benchmarkJSON, hdr header, outDir string) int {
	order := slices.Clone(workloadNames)
	sets := [2]map[string]*workloadResult{{}, {}}
	out := results{Header: hdr}
	for i := range sets {
		for _, name := range order {
			r := runWorkload(name, sz)
			printWorkload(os.Stdout, r)
			sets[i][name] = r
			out.Workloads = append(out.Workloads, r)
		}
		slices.Reverse(order)
	}
	code := out.exitCode()
	if !compareSets(os.Stdout, bj, sets[0], sets[1]) {
		code = 1
	}
	if err := out.store(outDir, fmt.Sprintf("selfcheck-seed%d.json", sz.seed)); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return code
}

// compareSets prints, for every gated metric of every workload, both
// sets' medians and their relative difference, and reports whether
// every difference stayed within the metric's bound.
func compareSets(w io.Writer, bj benchmarkJSON, first, second map[string]*workloadResult) bool {
	within := true
	fmt.Fprintf(w, "\n%-14s %-22s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, name := range workloadNames {
		for _, m := range bj.EndToEnd {
			a, okA := first[name].metric(m.Name)
			b, okB := second[name].metric(m.Name)
			if !okA || !okB {
				continue
			}
			diff := (b.Median - a.Median) / a.Median
			verdict := ""
			if diff > m.Bound || diff < -m.Bound {
				verdict, within = "  OVER", false
			}
			fmt.Fprintf(w, "%-14s %-22s %14.6g %14.6g %+7.1f%% %5.0f%%%s\n",
				name, m.Name, a.Median, b.Median, 100*diff, 100*m.Bound, verdict)
		}
	}
	return within
}
