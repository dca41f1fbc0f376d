package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
)

// span is one recorded interval of a traced pass. Every traced request
// (or sampled task) has exactly one root span covering it from the
// benchmark's first call into the API to the last thing it observes;
// every other span of that request is a child of the root. A root may
// be recorded before its last child ends (a task body can finish
// before the Spawn call that created it returns), so finish extends
// each root to the latest end recorded for its request. Parent is the
// root's index in the written list, -1 on the root itself.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    int64  `json:"req"`
	Parent int    `json:"parent"`
	root   bool
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer is the benchmark's own in-memory span recorder: one
// preallocated buffer per recording goroutine or exclusive thread
// slot, appended to without sharing, merged when the pass ends.
type tracer struct {
	bufs [][]span
}

func newTracer(n, capEach int) *tracer {
	t := &tracer{bufs: make([][]span, n)}
	for i := range t.bufs {
		t.bufs[i] = make([]span, 0, capEach)
	}
	return t
}

// add records a child span of request req from recorder g.
func (t *tracer) add(g int, name string, req, start, end int64) {
	t.bufs[g] = append(t.bufs[g], span{Name: name, Start: start, End: end, Req: req})
}

// addRoot records the root span of request req.
func (t *tracer) addRoot(g int, name string, req, start, end int64) {
	t.bufs[g] = append(t.bufs[g], span{Name: name, Start: start, End: end, Req: req, root: true})
}

// request is one traced request after the merge: its root span and the
// children recorded for it, in start order.
type request struct {
	root     span
	children []span
}

// finish merges the buffers, orders spans by request then start time,
// links each child to its request's root, and returns both the flat
// list (for the trace file) and the per-request view (for analysis).
// A child whose request recorded no root is dropped.
func (t *tracer) finish() ([]span, []request) {
	var all []span
	for _, b := range t.bufs {
		all = append(all, b...)
	}
	slices.SortStableFunc(all, func(a, b span) int {
		switch {
		case a.Req != b.Req:
			if a.Req < b.Req {
				return -1
			}
			return 1
		case a.root != b.root:
			if a.root {
				return -1
			}
			return 1
		case a.Start < b.Start:
			return -1
		case a.Start > b.Start:
			return 1
		}
		return 0
	})
	flat := all[:0]
	var reqs []request
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].Req == all[i].Req {
			j++
		}
		if all[i].root {
			rootIdx := len(flat)
			all[i].Parent = -1
			flat = append(flat, all[i])
			for k := i + 1; k < j; k++ {
				all[k].Parent = rootIdx
				flat = append(flat, all[k])
				flat[rootIdx].End = max(flat[rootIdx].End, all[k].End)
			}
			reqs = append(reqs, request{root: flat[rootIdx], children: flat[rootIdx+1:]})
		}
		i = j
	}
	return flat, reqs
}

// selfTime is a span's duration minus the part of its interval that its
// children cover (their union, clipped to the parent): the time the
// request spent in no recorded child, that is, waiting between layers.
func selfTime(root span, children []span) int64 {
	cs := slices.Clone(children)
	slices.SortFunc(cs, func(a, b span) int {
		if a.Start < b.Start {
			return -1
		}
		if a.Start > b.Start {
			return 1
		}
		return 0
	})
	covered, edge := int64(0), root.Start
	for _, c := range cs {
		s, e := max(c.Start, edge), min(c.End, root.End)
		if e > s {
			covered += e - s
			edge = e
		}
	}
	return root.dur() - covered
}

// child returns the first child named name.
func (r request) child(name string) (span, bool) {
	for _, c := range r.children {
		if c.Name == name {
			return c, true
		}
	}
	return span{}, false
}

// writeTrace stores a traced pass as JSON under dir.
func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
