package repro_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// Per-node attribute bits of a fuzzed template.
const (
	fzElevated = 1 << iota // priority level 2, else 0
	fzDeadline             // deadline offset of one hour, else none
	fzFail                 // the body fails
	fzPure                 // MarkPure; the value then follows the epoch
)

// fuzzMaxNodes bounds a fuzzed template: node i's dependencies are the
// set bits below i of a 16-bit mask.
const fuzzMaxNodes = 16

// fuzzEdges encodes a dependency list the way FuzzCompiledGraph reads it.
func fuzzEdges(deps [][]int) []byte {
	b := make([]byte, 0, 2*len(deps))
	for _, ds := range deps {
		m := 0
		for _, d := range ds {
			m |= 1 << d
		}
		b = append(b, byte(m), byte(m>>8))
	}
	return b
}

// FuzzCompiledGraph drives CompiledGraph.Do over fuzzed templates — DAG
// shape, failing nodes, error policy, a per-node priority and deadline
// mix, MarkPure with Invalidate, and a context cancel or DoTimeout
// expiry inside a chosen node — and compares every node's value and
// error with the interpreted reference (export_test.go), run to the end
// under CollectAll: a node that ran must agree with it exactly, a node
// that did not must report a skip that the request's policy and stop
// allow, with the stop's cause when nothing else can have caused it.
// Three requests per input reuse the template and its frames: the
// stopped one, a clean one (memo hits), and one after Invalidate.
func FuzzCompiledGraph(f *testing.F) {
	chain := [][]int{{}, {0}, {1}, {2}, {3}, {4}, {5}, {6}}
	diamond := [][]int{{}, {0}, {0}, {1, 2}}
	bench := [][]int{{}, {0}, {0}, {0}, {1, 2}, {4, 3}, {5, 0}}
	lattice := [][]int{{}, {0}, {1}, {0}, {1, 3}, {2, 4}, {3}, {4, 6}, {5, 7}}
	for _, shape := range [][][]int{chain, diamond, bench, lattice} {
		edges, n := fuzzEdges(shape), len(shape)
		f.Add(edges, []byte{}, uint8(0), uint8(0))
		f.Add(edges, []byte{}, uint8(2), uint8(n/2))           // cancel midway, FailFast
		f.Add(edges, []byte{}, uint8(5), uint8(n/2))           // timeout midway, CollectAll
		f.Add(edges, []byte{0, 0, fzFail}, uint8(0), uint8(0)) // a failure, FailFast
		f.Add(edges, []byte{0, fzFail, 0, fzFail}, uint8(1), uint8(0))
		f.Add(edges, []byte{fzPure, fzPure, fzPure | fzElevated, 0, fzPure}, uint8(0), uint8(0))
		f.Add(edges, []byte{0, fzElevated, fzElevated, 0, fzElevated | fzDeadline, fzElevated | fzDeadline, fzDeadline},
			uint8(2), uint8(n-1))
	}

	rts := [2]*repro.Runtime{
		repro.New(repro.WithWorkers(2)),
		repro.New(repro.WithWorkers(2), repro.WithErrorPolicy(repro.CollectAll)),
	}
	f.Cleanup(func() {
		rts[0].Close()
		rts[1].Close()
	})

	f.Fuzz(func(t *testing.T, edges, attrs []byte, mode, stopAt uint8) {
		n := min(len(edges)/2, fuzzMaxNodes)
		if n == 0 {
			return
		}
		attr := func(i int) byte {
			if i < len(attrs) {
				return attrs[i]
			}
			return 0
		}
		const (
			stopNone = iota
			stopCancel
			stopTimeout
		)
		rt, stopKind, at := rts[mode&1], int(mode>>1)%3, int(stopAt)%n

		// Per-input state the bodies share with the driver below.
		var (
			epoch    atomic.Int64 // what a pure-marked node's value follows
			stopping atomic.Bool  // the node `at` stops this request
			cancel   context.CancelFunc
			ran      [fuzzMaxNodes]atomic.Int32
		)
		g := repro.NewGraph()
		deps := make([][]int, n)
		anyFail := false
		for i := 0; i < n; i++ {
			mask := int(edges[2*i]) | int(edges[2*i+1])<<8
			var names []string
			for j := 0; j < i; j++ {
				if mask&(1<<j) != 0 {
					deps[i] = append(deps[i], j)
					names = append(names, nodeName(j))
				}
			}
			a := attr(i)
			anyFail = anyFail || a&fzFail != 0
			pri := 0
			if a&fzElevated != 0 {
				pri = 2
			}
			g.Add(nodeName(i), names, func(c *repro.Ctx, d map[string]any) (any, error) {
				ran[i].Add(1)
				if got := c.Priority(); got != pri {
					t.Errorf("node %d runs at level %d, declared %d", i, got, pri)
				}
				if got := c.Deadline(); (got != 0) != (a&fzDeadline != 0) {
					t.Errorf("node %d reads deadline %d, declared %v", i, got, a&fzDeadline != 0)
				}
				if i == at && stopping.Load() {
					if stopKind == stopCancel {
						cancel()
					}
					if err := waitAborted(c); err != nil {
						return nil, err
					}
				}
				if a&fzFail != 0 {
					return nil, fmt.Errorf("node %d failed", i)
				}
				v := i*31 + 1
				if a&fzPure != 0 {
					v += 1000 * int(epoch.Load())
				}
				for _, name := range names {
					v += 7 * d[name].(int)
				}
				return v, nil
			})
			if pri != 0 {
				g.SetPriority(nodeName(i), pri)
			}
			if a&fzDeadline != 0 {
				g.SetDeadline(nodeName(i), time.Hour)
			}
			if a&fzPure != 0 {
				g.MarkPure(nodeName(i))
			}
		}
		// after[i]: node i is `at` or depends on it, however indirectly.
		after := make([]bool, n)
		after[at] = true
		for i := at + 1; i < n; i++ {
			for _, d := range deps[i] {
				after[i] = after[i] || after[d]
			}
		}

		cg, err := g.Compile(rt)
		if err != nil {
			t.Fatal(err)
		}
		// request serves one request, stopped or not, and checks it
		// against ref, the interpreted outcome of the current epoch.
		request := func(label string, stop int, ref map[string]repro.Result) {
			for i := range ran {
				ran[i].Store(0)
			}
			ctx := context.Background()
			cancel = func() {}
			var d time.Duration
			var cause error
			switch stop {
			case stopCancel:
				ctx, cancel = context.WithCancel(ctx)
				cause = context.Canceled
			case stopTimeout:
				d, cause = 2*time.Millisecond, context.DeadlineExceeded
			}
			defer func() { cancel() }()
			stopping.Store(stop != stopNone)
			e, doErr := cg.DoTimeout(ctx, d)
			stopping.Store(false)
			defer e.Release()
			if e.Err() != doErr {
				t.Fatalf("%s: Err() = %v, Do returned %v", label, e.Err(), doErr)
			}
			// Without a failing node the stopping node always runs (or
			// the timer beat it): the request fails with the stop's cause
			// and nothing after the node runs.
			sure := stop != stopNone && !anyFail
			switch {
			case sure && !errors.Is(doErr, cause):
				t.Fatalf("%s: aggregate %v, want %v", label, doErr, cause)
			case stop == stopNone && (doErr != nil) != anyFail:
				t.Fatalf("%s: aggregate %v with failing nodes = %v", label, doErr, anyFail)
			}
			maySkip := stop != stopNone || (anyFail && mode&1 == 0)
			for i := 0; i < n; i++ {
				if k := ran[i].Load(); k > 1 {
					t.Fatalf("%s: node %d ran %d times", label, i, k)
				}
				want := ref[nodeName(i)]
				v, err := e.Value(nodeName(i))
				switch {
				case sure && after[i] && i != at && !errors.Is(err, repro.ErrTaskSkipped):
					t.Fatalf("%s: node %d = %v, %v: it follows the stopping node %d", label, i, v, err, at)
				case err == nil:
					if want.Err != nil || v != want.Value {
						t.Fatalf("%s: node %d = %v, interpreted %v, %v", label, i, v, want.Value, want.Err)
					}
				case errors.Is(err, repro.ErrTaskSkipped):
					if !maySkip || ran[i].Load() != 0 {
						t.Fatalf("%s: node %d skipped (%v) after %d runs", label, i, err, ran[i].Load())
					}
					if sure && !errors.Is(err, cause) {
						t.Fatalf("%s: node %d skipped by %v, want %v", label, i, err, cause)
					}
				default:
					if errString(want.Err) != err.Error() {
						t.Fatalf("%s: node %d failed with %q, interpreted %q", label, i, err, errString(want.Err))
					}
				}
			}
		}
		reference := func() map[string]repro.Result {
			ref, _ := repro.RunInterpreted(g, context.Background(), rts[1])
			return ref
		}

		epoch.Store(1)
		ref := reference()
		request("stopped", stopKind, ref)
		request("clean", stopNone, ref)
		epoch.Store(2)
		cg.Invalidate()
		request("invalidated", stopNone, reference())
		if lv := rt.LiveTasks(); lv != 0 {
			t.Fatalf("LiveTasks = %d at quiescence", lv)
		}
	})
}
