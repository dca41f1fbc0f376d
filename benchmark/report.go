package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// header records what a run ran on; it is printed first and stored
// with the results.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	P          int     `json:"p"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	LoadAvg1   float64 `json:"loadavg_1m"`
	Started    string  `json:"started"`
}

func newHeader(sz sizing) header {
	h := header{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		P: sz.P, GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: sz.seed, Seconds: sz.seconds, Smoke: sz.smoke,
		LoadAvg1: -1, Started: time.Now().UTC().Format(time.RFC3339),
	}
	// Outside a git checkout (the benchmark driver's copy) the commit
	// stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				h.LoadAvg1 = v
			}
		}
	}
	return h
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "benchmark: commit %s, %s, nproc %d, P %d, GOMAXPROCS %d, seed %d, %.0f s per workload, load %.2f\n",
		h.Commit, h.GoVersion, h.NumCPU, h.P, h.GOMAXPROCS, h.Seed, h.Seconds, h.LoadAvg1)
	if h.LoadAvg1 > 0.5*float64(h.NumCPU) {
		fmt.Fprintf(w, "benchmark: WARNING: 1-minute load average %.2f is above half of %d CPUs; timings will be noisy\n", h.LoadAvg1, h.NumCPU)
	}
}

// results is what a run stores under -out.
type results struct {
	Header    header            `json:"header"`
	Workloads []*workloadResult `json:"workloads,omitempty"`
	Traced    []*tracedResult   `json:"traced,omitempty"`
	Drivers   []layerMetric     `json:"drivers,omitempty"`
}

func (r results) store(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), append(b, '\n'), 0o644)
}

// exitCode is 1 when any operation of any part failed.
func (r results) exitCode() int {
	for _, w := range r.Workloads {
		if w.Failed > 0 {
			return 1
		}
	}
	for _, t := range r.Traced {
		if t.Failed > 0 {
			return 1
		}
	}
	return 0
}

func printWorkload(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "\n%s: attempted %d, succeeded %d, failed %d\n", r.Workload, r.Attempted, r.Attempted-r.Failed, r.Failed)
	if r.Error != "" {
		fmt.Fprintf(w, "  FAILED: %s\n", r.Error)
		return
	}
	fmt.Fprintf(w, "  %-22s %-6s %14s %14s %14s %3s  %s\n", "metric", "unit", "median", "q1", "q3", "n", "per-window values")
	for _, m := range r.Metrics {
		name := m.Name
		if name == "latency_p99_us" && r.TailPct < 0.99 {
			name = fmt.Sprintf("latency_p99_us(p%.0f)", 100*r.TailPct)
		}
		vals := make([]string, len(m.Values))
		for i, v := range m.Values {
			vals[i] = strconv.FormatFloat(v, 'g', 5, 64)
		}
		fmt.Fprintf(w, "  %-22s %-6s %14.6g %14.6g %14.6g %3d  %s\n", name, m.Unit, m.Median, m.Q1, m.Q3, m.N, strings.Join(vals, " "))
	}
}

func printTraced(w io.Writer, t *tracedResult) {
	fmt.Fprintf(w, "\n%s traced: attempted %d, failed %d, %d spans\n", t.Workload, t.Attempted, t.Failed, t.Spans)
	if t.Error != "" {
		fmt.Fprintf(w, "  FAILED: %s\n", t.Error)
		return
	}
	names := make([]string, 0, len(t.Metrics))
	for name := range t.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-26s %14.6g\n", name, t.Metrics[name])
	}
}

func printDrivers(w io.Writer, ds []layerMetric) {
	fmt.Fprintf(w, "\nlayer drivers\n  %-30s %-6s %14s %10s\n", "metric", "unit", "value", "ops")
	for _, d := range ds {
		fmt.Fprintf(w, "  %-30s %-6s %14.6g %10d\n", d.Name, d.Unit, d.Value, d.Ops)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the command needs: which
// metrics the one-line result carries, and the regression bounds the
// self-check compares two runs against.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(path string) (benchmarkJSON, error) {
	var bj benchmarkJSON
	b, err := os.ReadFile(path)
	if err != nil {
		return bj, fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		return bj, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bj, nil
}

// contractLine is the last line of a -workload run.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (l contractLine) print(w io.Writer) {
	b, err := json.Marshal(l)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "%s\n", b)
}
