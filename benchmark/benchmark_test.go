package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var smokeSizing = sizing{P: 2, seconds: 15, seed: 11, smoke: true}

// smokeRun runs the untraced set once at smoke size and shares it.
var smokeRun = sync.OnceValue(func() map[string]*workloadResult {
	out := map[string]*workloadResult{}
	for _, name := range workloadNames {
		out[name] = runWorkload(name, smokeSizing)
	}
	return out
})

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	bj, err := readBenchmarkJSON("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return bj
}

// Every workload verifies and reports every end-to-end metric
// BENCHMARK.json gates, as a positive number.
func TestEveryWorkloadReportsEveryGatedMetric(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for name, r := range smokeRun() {
		if r.Failed != 0 || r.Attempted == 0 || r.Error != "" {
			t.Fatalf("%s: attempted %d, failed %d: %s", name, r.Attempted, r.Failed, r.Error)
		}
		for _, m := range bj.EndToEnd {
			v, ok := r.metric(m.Name)
			if !ok {
				t.Errorf("%s: no metric %s", name, m.Name)
			} else if !(v.Median > 0) || v.Unit != m.Unit {
				t.Errorf("%s: %s = %v %s, want a positive number of %s", name, m.Name, v.Median, v.Unit, m.Unit)
			}
		}
	}
	if _, ok := smokeRun()["qos_mix"].metric("slo_miss_ratio"); !ok {
		t.Error("qos_mix: no slo_miss_ratio")
	}
}

// BENCHMARK.json names exactly this benchmark: its workloads, and
// per-layer metrics that a traced run of any workload can produce.
func TestBenchmarkJSONMatchesTheCommand(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) || !slices.Equal(doc.Paths, []string{"benchmark"}) {
		t.Errorf("BENCHMARK.json lists workloads %v under %v, the command runs %v under benchmark", names, doc.Paths, workloadNames)
	}
	have := map[string]bool{"trace.overhead_ratio": true, "latency_p99_us": true}
	for m := range spanMetricHome {
		have[m] = true
	}
	for _, d := range runDrivers(smokeSizing) {
		if d.Ops <= 0 {
			t.Errorf("driver metric %s has no operation count", d.Name)
		}
		have[d.Name] = true
	}
	for _, m := range loadBenchmarkJSON(t).PerLayer {
		if !have[m.Name] {
			t.Errorf("BENCHMARK.json lists per-layer metric %s, which nothing measures", m.Name)
		}
	}
}

// A -workload run ends with the one-line result the benchmark driver
// reads, carrying exactly the listed metrics, in both trace modes; a
// traced pass emits every span metric homed on its workload.
func TestContractLine(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	stdout := os.Stdout
	defer func() { os.Stdout = stdout }()
	for _, layers := range []bool{false, true} {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = w
		code := runContract("graph_closed", smokeSizing, layers, bj, newHeader(smokeSizing), t.TempDir())
		w.Close()
		os.Stdout = stdout
		var buf bytes.Buffer
		buf.ReadFrom(r)
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var line contractLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil || code != 0 {
			t.Fatalf("layers=%v: exit %d, last line %q: %v", layers, code, lines[len(lines)-1], err)
		}
		want := len(bj.EndToEnd)
		if layers {
			want = len(bj.PerLayer)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 || len(line.Metrics) != want {
			t.Errorf("layers=%v: correct %v, attempted %d, failed %d, %d metrics, want %d",
				layers, line.Correct, line.Attempted, line.Failed, len(line.Metrics), want)
		}
	}
	passes := map[string]*tracedResult{}
	for metric, home := range spanMetricHome {
		if passes[home] == nil {
			passes[home] = passTraced(home, smokeSizing, "")
		}
		if _, ok := passes[home].Metrics[metric]; !ok {
			t.Errorf("traced pass of %s does not emit %s", home, metric)
		}
	}
}

// Counts made by single-threaded drivers repeat exactly.
func TestPureCountsRepeat(t *testing.T) {
	a, b := depsStencilDriver(smokeSizing), depsStencilDriver(smokeSizing)
	for i := range a {
		if a[i].Unit == "count" && (a[i].Value != b[i].Value || a[i].Ops != b[i].Ops) {
			t.Errorf("%s: %v over %d ops, then %v over %d", a[i].Name, a[i].Value, a[i].Ops, b[i].Value, b[i].Ops)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	mk := func(seed int64) (*heatFine, *qosMix, *graphClosed) {
		sz := smokeSizing
		sz.seed = seed
		return newHeatFine(sz, phaseMain).(*heatFine), newQosMix(sz, phaseMain).(*qosMix), newGraphClosed(sz, phaseMain).(*graphClosed)
	}
	h1, q1, g1 := mk(5)
	h2, q2, g2 := mk(5)
	h3, q3, g3 := mk(6)
	if !slices.Equal(h1.start, h2.start) || !slices.Equal(q1.due, q2.due) || q1.batchKey(9) != q2.batchKey(9) || g1.base != g2.base {
		t.Error("the same seed gave different inputs")
	}
	if slices.Equal(h1.start, h3.start) || slices.Equal(q1.due, q3.due) || g1.base == g3.base {
		t.Error("different seeds gave the same inputs")
	}
}

// Each validator must fail on a corrupted result: a dropped task, a
// flipped heat cell, a wrong or repeated or missing sink, a missing
// key update.
func TestValidatorsRejectCorruptedResults(t *testing.T) {
	expect := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: the validator accepted it", what)
		}
	}
	run := func(w workload) {
		t.Helper()
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		if _, err := w.window(); err != nil {
			t.Fatal(err)
		}
	}

	sf := newSpawnFlat(smokeSizing, phaseMain).(*spawnFlat)
	run(sf)
	defer sf.close()
	sf.out[sf.tasks/2] = 0
	expect("spawn_flat with a dropped task", sf.verify(sf.tasks))

	hf := newHeatFine(smokeSizing, phaseMain).(*heatFine)
	run(hf)
	defer hf.close()
	hf.grid[(hf.n/2)*hf.stride+hf.n/2] += 1e-9
	expect("heat_fine with a flipped cell", hf.verify(0))

	gc := newGraphClosed(smokeSizing, phaseMain).(*graphClosed)
	run(gc)
	defer gc.close()
	ticket := gc.base + 1
	expect("graph_closed with a repeated ticket", gc.file(ticket, graphSink(ticket), gc.requests))
	gc.rec[0] = 0
	expect("graph_closed with a missing ticket", gc.verify(gc.requests))
	expect("graph_closed with a wrong sink", gc.file(ticket, graphSink(ticket)+1, gc.requests))
	expect("graph_closed with a foreign ticket", gc.file(gc.base, graphSink(gc.base), gc.requests))
	if err := gc.file(ticket, graphSink(ticket), gc.requests); err != nil {
		t.Errorf("graph_closed rejected an exact first delivery: %v", err)
	}

	qm := newQosMix(smokeSizing, phaseMain).(*qosMix)
	run(qm)
	defer qm.close()
	qm.keys[qm.batchKey(0)] -= batchDelta(0)
	expect("qos_mix with a missing batch key update", qm.verify(qm.inter))
	qm.keys[qm.batchKey(0)] += batchDelta(0)
	qm.interStage[0] = 0
	expect("qos_mix with an interactive compute that never ran", qm.verify(qm.inter))

	ep := newEchoPaced(smokeSizing, phaseMain).(*echoPaced)
	run(ep)
	defer ep.close()
	ep.keys[ep.key(3)] -= 2 * echoDelta(3)
	expect("echo_paced with a missing key update", ep.verify(ep.requests))
	ep.keys[ep.key(3)] += 2 * echoDelta(3)
	ep.resp[3] = 0
	expect("echo_paced with a reply that ran before its response", ep.verify(ep.requests))
}

// Two sets that differ by more than a bound fail the self-check; two
// equal sets pass it.
func TestCompareSetsAppliesTheBounds(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	first := smokeRun()
	if !compareSets(new(bytes.Buffer), bj, first, first) {
		t.Error("a set differs from itself")
	}
	worse := map[string]*workloadResult{}
	for name, r := range first {
		c := *r
		c.Metrics = slices.Clone(r.Metrics)
		worse[name] = &c
	}
	m := worse["heat_fine"].Metrics
	i := slices.IndexFunc(m, func(v metricValue) bool { return v.Name == "throughput_ops_s" })
	m[i].Median *= 0.5
	var out bytes.Buffer
	if compareSets(&out, bj, first, worse) || !strings.Contains(out.String(), "OVER") {
		t.Error("halved throughput passed the self-check")
	}
}

// The benchmark carries its own kernels and generators: evaluation
// code a later change may edit must not be able to move the yardstick.
func TestNoEvaluationCodeImported(t *testing.T) {
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), ".go") {
			continue
		}
		file, err := parser.ParseFile(fset, f.Name(), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			for _, banned := range []string{"repro/internal/workloads", "repro/internal/bench", "repro/internal/harness"} {
				if path == banned || strings.HasPrefix(path, banned+"/") {
					t.Errorf("%s imports %s", f.Name(), path)
				}
			}
		}
	}
}
