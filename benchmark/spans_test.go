package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	root := span{Name: spanTask, Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping count once", []span{{Start: 110, End: 150}, {Start: 130, End: 170}}, 40},
		{"nested", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"clipped to the parent", []span{{Start: 90, End: 120}, {Start: 180, End: 250}}, 60},
		{"unordered input", []span{{Start: 150, End: 170}, {Start: 110, End: 120}}, 70},
		{"full cover", []span{{Start: 100, End: 200}}, 0},
	} {
		if got := selfTime(root, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestFinishLinksChildrenToTheirRoot(t *testing.T) {
	tr := newTracer(3, 1)
	tr.add(0, spanSpawnCall, 7, 10, 40) // recorded before its root, ends after it
	tr.add(1, spanBody, 7, 20, 30)
	tr.addRoot(1, spanTask, 7, 10, 30)
	tr.addRoot(2, spanTaskwait, -1, 50, 60)
	tr.add(0, spanBody, 99, 1, 2) // no root recorded: dropped
	flat, reqs := tr.finish()
	if len(flat) != 4 || len(reqs) != 2 {
		t.Fatalf("finish kept %d spans in %d requests, want 4 in 2", len(flat), len(reqs))
	}
	for i, s := range flat {
		switch {
		case s.root && s.Parent != -1:
			t.Errorf("root %d has parent %d", i, s.Parent)
		case !s.root && (flat[s.Parent].Req != s.Req || !flat[s.Parent].root):
			t.Errorf("span %d (%s, req %d) has parent %d, not its request's root", i, s.Name, s.Req, s.Parent)
		}
	}
	task := reqs[1]
	if task.root.Req != 7 || len(task.children) != 2 {
		t.Fatalf("request 7 came out as %+v", task)
	}
	if task.root.End != 40 {
		t.Errorf("root ends at %d, want it extended to its last child's end 40", task.root.End)
	}
	if st := selfTime(task.root, task.children); st != 0 {
		t.Errorf("self time %d, want 0: the Spawn call covers the whole task", st)
	}
}

// tracedPasses runs the traced pass of every workload once, at smoke
// size, for the tests that look at spans and span metrics.
func tracedPasses(t *testing.T) map[string][]request {
	t.Helper()
	out := map[string][]request{}
	for _, name := range workloadNames {
		w := specs[name].make(smokeSizing, phaseMain)
		if err := w.setup(); err != nil {
			t.Fatalf("%s: setup: %v", name, err)
		}
		tr := newTracer(64, 64)
		_, err := w.windowTraced(tr)
		w.close()
		if err != nil {
			t.Fatalf("%s: traced window: %v", name, err)
		}
		_, out[name] = tr.finish()
		if len(out[name]) == 0 {
			t.Fatalf("%s: traced window recorded no request", name)
		}
	}
	return out
}

// Every traced request must be partitioned by its spans: children lie
// inside the root, self time plus child coverage is the root's
// duration, and a Do call's three intervals sum to it with no node
// starting before the dependency it waited for has ended.
func TestTracedRequestsPartitionIntoTheirSpans(t *testing.T) {
	for name, reqs := range tracedPasses(t) {
		for _, r := range reqs {
			for _, c := range r.children {
				if c.Start < r.root.Start || c.End > r.root.End || c.End < c.Start {
					t.Fatalf("%s: req %d: child %s [%d,%d] outside root [%d,%d]",
						name, r.root.Req, c.Name, c.Start, c.End, r.root.Start, r.root.End)
				}
			}
			if self := selfTime(r.root, r.children); self < 0 || self > r.root.dur() {
				t.Fatalf("%s: req %d: self time %d of a %d ns root", name, r.root.Req, self, r.root.dur())
			}
			if r.root.Name != spanDo {
				continue
			}
			q, n, d, hs := doPartition(r)
			if sum, whole := q+n+d, r.root.dur(); abs64(sum-whole)*100 > whole {
				t.Fatalf("%s: ticket %d: %d + %d + %d = %d, Do took %d", name, r.root.Req, q, n, d, sum, whole)
			}
			if q < 0 || n < 0 || d < 0 || len(r.children) != len(graphNodes) || len(hs) != len(graphNodes)-1 {
				t.Fatalf("%s: ticket %d: partition %d %d %d over %d nodes, %d handoffs", name, r.root.Req, q, n, d, len(r.children), len(hs))
			}
			for _, h := range hs {
				if h < 0 {
					t.Fatalf("%s: ticket %d: a node started %d ns before its dependency ended", name, r.root.Req, -h)
				}
			}
		}
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// Tracing off must mean no recorder in reach, so that end-to-end
// numbers carry no tracing cost: outside the recorder's own file, only
// functions named ...Traced may mention the tracer type, and nothing
// may hold one in a field or a package variable.
func TestUntracedPathHasNoRecorder(t *testing.T) {
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), ".go") || strings.HasSuffix(f.Name(), "_test.go") || f.Name() == "spans.go" {
			continue
		}
		file, err := parser.ParseFile(fset, f.Name(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, isFunc := decl.(*ast.FuncDecl)
			if isFunc && strings.HasSuffix(fn.Name.Name, "Traced") {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if m, ok := n.(*ast.Field); ok && len(m.Names) == 1 && strings.HasSuffix(m.Names[0].Name, "Traced") {
					return false // the ...Traced method of the workload interface
				}
				if id, ok := n.(*ast.Ident); ok && (id.Name == "tracer" || id.Name == "newTracer") {
					where := "a declaration"
					if isFunc {
						where = "func " + fn.Name.Name
					}
					t.Errorf("%s: %s mentions %s outside a ...Traced function", fset.Position(id.Pos()), where, id.Name)
				}
				return true
			})
		}
	}
}
