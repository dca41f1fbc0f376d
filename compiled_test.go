package repro_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

func TestCompiledBasic(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()

	g := repro.NewGraph().
		Add("a", nil, func(*repro.Ctx, map[string]any) (any, error) { return 2, nil }).
		Add("b", nil, func(*repro.Ctx, map[string]any) (any, error) { return 3, nil }).
		Add("mul", []string{"a", "b"}, func(_ *repro.Ctx, d map[string]any) (any, error) {
			return d["a"].(int) * d["b"].(int), nil
		}).
		Add("add", []string{"mul", "a"}, func(_ *repro.Ctx, d map[string]any) (any, error) {
			return d["mul"].(int) + d["a"].(int), nil
		})
	cg, err := g.Compile(rt)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if cg.Len() != 4 {
		t.Fatalf("Len = %d, want 4", cg.Len())
	}
	ai, ok := cg.NodeIndex("add")
	if !ok {
		t.Fatal("NodeIndex(add) not found")
	}
	if name := cg.NodeName(ai); name != "add" {
		t.Fatalf("NodeName(%d) = %q, want add", ai, name)
	}
	if _, ok := cg.NodeIndex("nope"); ok {
		t.Fatal("NodeIndex(nope) must not resolve")
	}
	// Many sequential requests through the pooled frames.
	for i := 0; i < 100; i++ {
		e, err := cg.Do(context.Background())
		if err != nil {
			t.Fatalf("Do %d: %v", i, err)
		}
		if v, err := e.ValueAt(ai); err != nil || v.(int) != 8 {
			t.Fatalf("Do %d: add = %v, %v; want 8, nil", i, v, err)
		}
		if v, err := e.Value("mul"); err != nil || v.(int) != 6 {
			t.Fatalf("Do %d: mul = %v, %v; want 6, nil", i, v, err)
		}
		if _, err := e.Value("nope"); err == nil {
			t.Fatal("Value of unknown task must error")
		}
		if _, err := e.ValueAt(99); err == nil {
			t.Fatal("ValueAt out of range must error")
		}
		e.Release()
	}
}

// randomGraph builds a DAG of n nodes where node i depends on a random
// subset of earlier nodes and computes a deterministic integer from its
// dependencies; node failAt (if >= 0) fails instead. It returns the
// graph and the expected value of every node (in index order) when
// nothing fails.
func randomGraph(rnd *rand.Rand, n, failAt int) (*repro.Graph, []int) {
	g := repro.NewGraph()
	deps := make([][]int, n)
	want := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if rnd.Intn(100) < 35 {
				deps[i] = append(deps[i], j)
			}
		}
		want[i] = i*31 + 1
		var names []string
		for _, d := range deps[i] {
			want[i] += 7 * want[d]
			names = append(names, nodeName(d))
		}
		i, fail := i, i == failAt
		g.Add(nodeName(i), names, func(_ *repro.Ctx, d map[string]any) (any, error) {
			if fail {
				return nil, fmt.Errorf("node %d failed", i)
			}
			v := i*31 + 1
			for _, name := range names {
				v += 7 * d[name].(int)
			}
			return v, nil
		})
	}
	return g, want
}

func nodeName(i int) string { return fmt.Sprintf("n%02d", i) }

// TestCompiledDifferentialCollectAll pins CompiledGraph.Do to the seed
// interpreted path over random DAGs under CollectAll, where every node
// deterministically runs or dependency-skips: the per-node values and
// error strings must match exactly.
func TestCompiledDifferentialCollectAll(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4), repro.WithErrorPolicy(repro.CollectAll))
	defer rt.Close()
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rnd.Intn(18)
		failAt := -1
		if trial%3 != 0 {
			failAt = rnd.Intn(n)
		}
		g, _ := randomGraph(rnd, n, failAt)
		ref, refErr := repro.RunInterpreted(g, context.Background(), rt)
		cg, err := g.Compile(rt)
		if err != nil {
			t.Fatalf("trial %d: Compile: %v", trial, err)
		}
		e, doErr := cg.Do(context.Background())
		if (refErr == nil) != (doErr == nil) {
			t.Fatalf("trial %d: aggregate mismatch: interpreted %v, compiled %v", trial, refErr, doErr)
		}
		for i := 0; i < n; i++ {
			name := nodeName(i)
			rv := ref[name]
			cv, cerr := e.Value(name)
			if rv.Value != cv {
				t.Fatalf("trial %d node %s: value %v (interpreted) vs %v (compiled)", trial, name, rv.Value, cv)
			}
			rs, cs := errString(rv.Err), errString(cerr)
			if rs != cs {
				t.Fatalf("trial %d node %s: error %q (interpreted) vs %q (compiled)", trial, name, rs, cs)
			}
		}
		e.Release()
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestCompiledDifferentialFailFast checks the structural contract under
// FailFast over random failing DAGs: the aggregate carries the failure,
// and every node either produced its exact expected value, recorded the
// failure (itself or a dependency chain to it), or was drained and
// reports the skip.
func TestCompiledDifferentialFailFast(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()
	rnd := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rnd.Intn(16)
		failAt := rnd.Intn(n)
		g, want := randomGraph(rnd, n, failAt)
		cg, err := g.Compile(rt)
		if err != nil {
			t.Fatalf("trial %d: Compile: %v", trial, err)
		}
		e, doErr := cg.Do(context.Background())
		if doErr == nil {
			t.Fatalf("trial %d: aggregate nil despite node %d failing", trial, failAt)
		}
		if !strings.Contains(doErr.Error(), fmt.Sprintf("node %d failed", failAt)) {
			t.Fatalf("trial %d: aggregate %v does not carry node %d's failure", trial, doErr, failAt)
		}
		for i := 0; i < n; i++ {
			v, err := e.Value(nodeName(i))
			switch {
			case err == nil:
				if v.(int) != want[i] {
					t.Fatalf("trial %d node %d: value %v, want %d", trial, i, v, want[i])
				}
			case errors.Is(err, repro.ErrTaskSkipped):
				// Drained before running: fine under FailFast.
			case strings.Contains(err.Error(), "failed"):
				// The failing node, or a dependency chain reaching it.
			default:
				t.Fatalf("trial %d node %d: unexpected error %v", trial, i, err)
			}
		}
		e.Release()
	}
}

// TestCompiledServeStorm drives one shared template from many
// concurrent clients with exact per-request verification: every
// request draws a unique ticket in its source node, and the fan-in
// below it must deliver that ticket's exact value to the sink, unmixed
// with any other in-flight frame's — a result slot leaking between
// pooled frames, or an edge firing early, shows as a wrong sink or a
// ticket seen twice. The sink is elevated, so its task is spawned with
// explicit attributes.
func TestCompiledServeStorm(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()
	const clients = 12
	requests := 4000
	if testing.Short() {
		requests = 800
	}
	var seq atomic.Int64
	lin := func(dep string, k, c int64) repro.GraphFunc {
		return func(_ *repro.Ctx, d map[string]any) (any, error) { return d[dep].(int64)*k + c, nil }
	}
	cg, err := repro.NewGraph().
		Add("ticket", nil, func(*repro.Ctx, map[string]any) (any, error) { return seq.Add(1), nil }).
		Add("a", []string{"ticket"}, lin("ticket", 3, 1)).
		Add("b", []string{"ticket"}, lin("ticket", 5, 2)).
		Add("sink", []string{"a", "b", "ticket"}, func(_ *repro.Ctx, d map[string]any) (any, error) {
			return d["a"].(int64) + d["b"].(int64)*2 + d["ticket"].(int64)*7, nil
		}).
		SetPriority("sink", 1).
		Compile(rt)
	if err != nil {
		t.Fatal(err)
	}
	tick, _ := cg.NodeIndex("ticket")
	sink, _ := cg.NodeIndex("sink")
	for round := 0; round < 2; round++ {
		seq.Store(0)
		seen := make([]atomic.Bool, requests)
		serve := func() error {
			e, err := cg.Do(context.Background())
			if err != nil {
				return err
			}
			defer e.Release()
			tv, _ := e.ValueAt(tick)
			sv, err := e.ValueAt(sink)
			if err != nil {
				return err
			}
			tk := tv.(int64)
			if tk < 1 || tk > int64(requests) || seen[tk-1].Swap(true) {
				return fmt.Errorf("ticket %d out of range or delivered twice", tk)
			}
			if want := 20*tk + 5; sv.(int64) != want {
				return fmt.Errorf("ticket %d: sink = %v, want %d", tk, sv, want)
			}
			return nil
		}
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := g; r < requests && errs[g] == nil; r += clients {
					errs[g] = serve()
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if n := seq.Load(); n != int64(requests) {
			t.Fatalf("round %d: %d tickets drawn for %d requests", round, n, requests)
		}
	}
}

func TestCompiledMemo(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()

	var pureRuns, impureRuns, mixRuns atomic.Int64
	g := repro.NewGraph().
		Add("pure", nil, func(*repro.Ctx, map[string]any) (any, error) {
			return int(pureRuns.Add(1)) * 100, nil
		}).
		Add("impure", nil, func(*repro.Ctx, map[string]any) (any, error) {
			return int(impureRuns.Add(1)), nil
		}).
		Add("mix", []string{"impure"}, func(_ *repro.Ctx, d map[string]any) (any, error) {
			return int(mixRuns.Add(1))*1000 + d["impure"].(int), nil
		}).
		Add("sink", []string{"pure", "mix"}, func(_ *repro.Ctx, d map[string]any) (any, error) {
			return d["pure"].(int) + d["mix"].(int), nil
		}).
		MarkPure("pure").
		MarkPure("mix") // impure dependency: must NOT memoize
	cg, err := g.Compile(rt)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	const rounds = 10
	for i := 1; i <= rounds; i++ {
		e, err := cg.Do(context.Background())
		if err != nil {
			t.Fatalf("Do %d: %v", i, err)
		}
		if v, _ := e.Value("pure"); v.(int) != 100 {
			t.Fatalf("Do %d: pure = %v, want memoized 100", i, v)
		}
		if v, _ := e.Value("sink"); v.(int) != 100+1000*i+i {
			t.Fatalf("Do %d: sink = %v, want %d", i, v, 100+1000*i+i)
		}
		e.Release()
	}
	if got := pureRuns.Load(); got != 1 {
		t.Fatalf("pure ran %d times, want 1 (memoized)", got)
	}
	if got := impureRuns.Load(); got != rounds {
		t.Fatalf("impure ran %d times, want %d", got, rounds)
	}
	if got := mixRuns.Load(); got != rounds {
		t.Fatalf("mix (pure with impure dep) ran %d times, want %d", got, rounds)
	}
	// Invalidate drops the memoized result: the next request recomputes
	// and re-memoizes.
	cg.Invalidate()
	for i := 0; i < 3; i++ {
		e, err := cg.Do(context.Background())
		if err != nil {
			t.Fatalf("Do after Invalidate: %v", err)
		}
		if v, _ := e.Value("pure"); v.(int) != 200 {
			t.Fatalf("pure after Invalidate = %v, want 200", v)
		}
		e.Release()
	}
	if got := pureRuns.Load(); got != 2 {
		t.Fatalf("pure ran %d times after Invalidate, want 2", got)
	}
}

func TestCompiledCancellation(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()
	var ran atomic.Bool
	g := repro.NewGraph().
		Add("a", nil, func(*repro.Ctx, map[string]any) (any, error) {
			ran.Store(true)
			return 1, nil
		})
	cg, err := g.Compile(rt)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, doErr := cg.Do(ctx)
	if !errors.Is(doErr, context.Canceled) {
		t.Fatalf("Do on cancelled ctx = %v, want wrapping context.Canceled", doErr)
	}
	if _, err := e.Value("a"); !errors.Is(err, repro.ErrTaskSkipped) {
		t.Fatalf("Value(a) = %v, want wrapping ErrTaskSkipped", err)
	}
	if ran.Load() {
		t.Fatal("node body ran despite pre-cancelled context")
	}
	e.Release()
	// The template (and the recycled frame) serve normally afterwards.
	e, doErr = cg.Do(context.Background())
	if doErr != nil {
		t.Fatalf("Do after cancelled request: %v", doErr)
	}
	if v, err := e.Value("a"); err != nil || v.(int) != 1 {
		t.Fatalf("a = %v, %v; want 1, nil", v, err)
	}
	e.Release()
}

func TestCompiledDeadline(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()
	g := repro.NewGraph().
		Add("slow", nil, func(*repro.Ctx, map[string]any) (any, error) {
			time.Sleep(40 * time.Millisecond)
			return 1, nil
		}).
		Add("after", []string{"slow"}, func(_ *repro.Ctx, d map[string]any) (any, error) {
			return d["slow"].(int) + 1, nil
		})
	cg, err := g.Compile(rt)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	e, doErr := cg.DoTimeout(context.Background(), 2*time.Millisecond)
	if !errors.Is(doErr, context.DeadlineExceeded) {
		t.Fatalf("DoTimeout = %v, want wrapping DeadlineExceeded", doErr)
	}
	// The started node ran to completion (DoTimeout waits for the full
	// drain); its dependent was drained and reports the skip.
	if v, err := e.Value("slow"); err != nil || v.(int) != 1 {
		t.Fatalf("slow = %v, %v; want 1, nil (started nodes complete)", v, err)
	}
	if _, err := e.Value("after"); !errors.Is(err, repro.ErrTaskSkipped) {
		t.Fatalf("after = %v, want wrapping ErrTaskSkipped", err)
	}
	e.Release()
	// Deadline generous enough for the whole DAG: completes cleanly, on
	// the same pooled frame.
	e, doErr = cg.DoTimeout(context.Background(), 5*time.Second)
	if doErr != nil {
		t.Fatalf("DoTimeout (generous): %v", doErr)
	}
	if v, err := e.Value("after"); err != nil || v.(int) != 2 {
		t.Fatalf("after = %v, %v; want 2, nil", v, err)
	}
	e.Release()
}

func TestCompiledNodeStats(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()
	g := repro.NewGraph().
		Add("pure", nil, func(*repro.Ctx, map[string]any) (any, error) { return 5, nil }).
		Add("sink", []string{"pure"}, func(_ *repro.Ctx, d map[string]any) (any, error) {
			return d["pure"].(int) * 2, nil
		}).
		MarkPure("pure")
	var mu sync.Mutex
	var stats []repro.NodeStat
	cg, err := g.Compile(rt, repro.WithNodeStats(func(s repro.NodeStat) {
		mu.Lock()
		stats = append(stats, s)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for i := 0; i < 2; i++ {
		e, err := cg.Do(context.Background())
		if err != nil {
			t.Fatalf("Do %d: %v", i, err)
		}
		e.Release()
	}
	mu.Lock()
	defer mu.Unlock()
	if len(stats) != 4 {
		t.Fatalf("got %d samples, want 4 (2 nodes × 2 requests)", len(stats))
	}
	memoized := 0
	for _, s := range stats {
		if s.Err != nil {
			t.Fatalf("sample %q: unexpected error %v", s.Name, s.Err)
		}
		if s.Name != "pure" && s.Name != "sink" {
			t.Fatalf("sample for unknown node %q", s.Name)
		}
		if s.Memoized {
			if s.Name != "pure" {
				t.Fatalf("impure node %q reported memoized", s.Name)
			}
			memoized++
		}
	}
	if memoized != 1 {
		t.Fatalf("memoized samples = %d, want 1 (second request's pure hit)", memoized)
	}
	h := cg.NodeLatency("sink")
	if h == nil {
		t.Fatal("NodeLatency(sink) = nil with stats enabled")
	}
	if n := h.Count(); n != 2 {
		t.Fatalf("sink latency samples = %d, want 2", n)
	}
	if cg.NodeLatency("nope") != nil {
		t.Fatal("NodeLatency of unknown node must be nil")
	}
}

func TestCompiledValidation(t *testing.T) {
	rt := repro.New(repro.WithWorkers(2))
	defer rt.Close()
	ok := func(*repro.Ctx, map[string]any) (any, error) { return nil, nil }
	for name, g := range map[string]*repro.Graph{
		"cycle":       repro.NewGraph().Add("a", []string{"b"}, ok).Add("b", []string{"a"}, ok),
		"unknown dep": repro.NewGraph().Add("a", []string{"ghost"}, ok),
		"duplicate":   repro.NewGraph().Add("a", nil, ok).Add("a", nil, ok),
		"self dep":    repro.NewGraph().Add("a", []string{"a"}, ok),
	} {
		if _, err := g.Compile(rt); err == nil {
			t.Errorf("%s: Compile succeeded, want error", name)
		}
	}
}

func TestGraphRunReusesCompiled(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()
	g := repro.NewGraph().
		Add("a", nil, func(*repro.Ctx, map[string]any) (any, error) { return 1, nil })
	cg1, err := g.Compile(rt)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if cg2, _ := g.Compile(rt); cg2 != cg1 {
		t.Fatal("second option-free Compile must return the cached template")
	}
	// Compiling with options never reuses (or replaces) the cache.
	cgOpt, err := g.Compile(rt, repro.WithNodeStats(func(repro.NodeStat) {}))
	if err != nil {
		t.Fatalf("Compile with options: %v", err)
	}
	if cgOpt == cg1 {
		t.Fatal("Compile with options must build a fresh template")
	}
	if cg3, _ := g.Compile(rt); cg3 != cg1 {
		t.Fatal("option compile must not evict the cached template")
	}
	if _, err := g.Run(context.Background(), rt); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Builder mutation invalidates the cache; the next Run sees it.
	g.Add("b", []string{"a"}, func(_ *repro.Ctx, d map[string]any) (any, error) {
		return d["a"].(int) + 10, nil
	})
	cg4, err := g.Compile(rt)
	if err != nil {
		t.Fatalf("Compile after Add: %v", err)
	}
	if cg4 == cg1 {
		t.Fatal("Compile after mutation must rebuild")
	}
	res, err := g.Run(context.Background(), rt)
	if err != nil {
		t.Fatalf("Run after Add: %v", err)
	}
	if v, err := repro.Value[int](res, "b"); err != nil || v != 11 {
		t.Fatalf("b = %v, %v; want 11, nil", v, err)
	}
	// SetPriority and MarkPure invalidate too.
	g.SetPriority("b", 2)
	if cg5, _ := g.Compile(rt); cg5 == cg4 {
		t.Fatal("Compile after SetPriority must rebuild")
	}
	g.MarkPure("a")
	prev, _ := g.Compile(rt)
	if cg6, _ := g.Compile(rt); cg6 != prev {
		t.Fatal("unmutated graph must keep its cache")
	}
	res, err = g.Run(context.Background(), rt)
	if err != nil {
		t.Fatalf("Run after SetPriority/MarkPure: %v", err)
	}
	if v, err := repro.Value[int](res, "b"); err != nil || v != 11 {
		t.Fatalf("b = %v, %v; want 11, nil", v, err)
	}
}
