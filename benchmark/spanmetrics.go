package main

// Span names. A root span is one of spanTask (a sampled spawned task,
// Spawn entry to body end), spanTaskwait, spanDo (a CompiledGraph.Do
// call) or spanRequest (a Submit chain, first Submit entry to
// Future.Wait return or last body end). Children are the benchmark's
// calls into the API and its own task bodies; in graph_closed a body
// span carries its node's name.
const (
	spanTask       = "task"
	spanTaskwait   = "taskwait"
	spanDo         = "do"
	spanRequest    = "request"
	spanSpawnCall  = "spawn_call"
	spanSubmitCall = "submit_call"
	spanBody       = "body"
	spanWait       = "wait"
)

// spanMetricHome names, for every span-derived per-layer metric, the
// workload that emits it when the traced workload itself does not: a
// layer metric describes a layer, so a traced run of any workload
// reports all of them, taking those its own spans cannot give from a
// smoke-sized traced pass of the home workload.
var spanMetricHome = map[string]string{
	"core.spawn_call_ns":     "spawn_flat",
	"core.taskwait_us":       "spawn_flat",
	"core.ready_wait_us":     "spawn_flat",
	"core.body_us":           "spawn_flat",
	"core.body_share":        "spawn_flat",
	"repro.submit_call_ns":   "qos_mix",
	"repro.wait_wake_us":     "qos_mix",
	"gen.lag_p99_us":         "qos_mix",
	"slo_miss_ratio":         "qos_mix",
	"repro.do_queue_wait_us": "graph_closed",
	"repro.do_nodes_us":      "graph_closed",
	"repro.handoff_us":       "graph_closed",
	"repro.do_completion_us": "graph_closed",
}

// doPartition splits one traced Do call into the three intervals that
// sum to it by construction, plus the hand-off gaps inside the middle
// one: queueWait is Do entry to the first node body, nodes is first
// body start to last body end, completion is last body end to Do
// return, and each handoff is the gap between a node's start and the
// end of the last of its dependencies to finish.
func doPartition(r request) (queueWait, nodes, completion int64, handoffs []int64) {
	first, last := r.root.End, r.root.Start
	for _, c := range r.children {
		first, last = min(first, c.Start), max(last, c.End)
	}
	for _, nd := range graphNodes[1:] {
		c, ok := r.child(nd.name)
		if !ok {
			continue
		}
		ready := int64(0)
		for _, d := range nd.deps {
			if dc, ok := r.child(d); ok {
				ready = max(ready, dc.End)
			}
		}
		handoffs = append(handoffs, c.Start-ready)
	}
	return first - r.root.Start, last - first, r.root.End - last, handoffs
}

// spanMetrics derives the per-layer metrics a traced window's spans
// support. workers and wall size core.body_share; a root whose id is
// below interBase stands for sampleEvery requests, so its bodies count
// that many times.
func spanMetrics(reqs []request, workers int, wall int64, sampled bool) map[string]float64 {
	var spawnCall, submitCall, body, taskwait, self, wake []float64
	var doQueue, doNodes, doDone, handoff []float64
	bodySum := 0.0
	for _, r := range reqs {
		if r.root.Name == spanTaskwait {
			taskwait = append(taskwait, float64(r.root.dur()))
			continue
		}
		weight := 1.0
		if sampled && r.root.Req < interBase {
			weight = sampleEvery
		}
		lastBody, waitEnd := int64(0), int64(0)
		for _, c := range r.children {
			switch c.Name {
			case spanSpawnCall:
				spawnCall = append(spawnCall, float64(c.dur()))
			case spanSubmitCall:
				submitCall = append(submitCall, float64(c.dur()))
			case spanWait:
				waitEnd = c.End
			default:
				body = append(body, float64(c.dur()))
				bodySum += weight * float64(c.dur())
				lastBody = max(lastBody, c.End)
			}
		}
		self = append(self, float64(selfTime(r.root, r.children)))
		if waitEnd != 0 {
			wake = append(wake, float64(waitEnd-lastBody))
		}
		if r.root.Name == spanDo {
			q, n, d, hs := doPartition(r)
			doQueue, doNodes, doDone = append(doQueue, float64(q)), append(doNodes, float64(n)), append(doDone, float64(d))
			for _, h := range hs {
				handoff = append(handoff, float64(h))
			}
		}
	}
	m := map[string]float64{
		"core.body_us":       median(body) / 1e3,
		"core.body_share":    bodySum / (float64(workers) * float64(wall)),
		"core.ready_wait_us": median(self) / 1e3,
	}
	put := func(name string, vs []float64, div float64) {
		if len(vs) > 0 {
			m[name] = median(vs) / div
		}
	}
	put("core.spawn_call_ns", spawnCall, 1)
	put("core.taskwait_us", taskwait, 1e3)
	put("repro.submit_call_ns", submitCall, 1)
	put("repro.wait_wake_us", wake, 1e3)
	put("repro.do_queue_wait_us", doQueue, 1e3)
	put("repro.do_nodes_us", doNodes, 1e3)
	put("repro.handoff_us", handoff, 1e3)
	put("repro.do_completion_us", doDone, 1e3)
	return m
}
