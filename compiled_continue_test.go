package repro_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/trace"
)

// The continuation tests read the runtime's own trace: a spawned node
// leaves a task-create event, a continued one a node-continue event
// carrying its index, and nothing else tells the two apart from outside.

// tracedRuntime is a runtime with tracing on and room for the events of
// a few thousand requests per thread. traceCounts closes it.
func tracedRuntime(opts ...repro.Option) *repro.Runtime {
	return repro.New(append([]repro.Option{repro.WithWorkers(2), repro.WithTracing(1 << 16)}, opts...)...)
}

// traceCounts closes rt — the trace may only be read once every thread
// that writes it has stopped — and returns the number of tasks it ever
// created and how often each node index was continued.
func traceCounts(t *testing.T, rt *repro.Runtime) (tasks int, continued map[int]int) {
	t.Helper()
	n := closedTrace(t, rt)
	return n.tasks, n.continued
}

// nodeCounts is what a closed runtime's trace says about compiled
// nodes: tasks created, and per node index how often it was continued
// and how often, offered, it was taken back and run as a call; plus the
// offers stolen from a serving slot's cells, each made a task.
type nodeCounts struct {
	tasks, steals     int
	continued, offers map[int]int
}

// closedTrace closes rt and counts its trace (see traceCounts).
func closedTrace(t *testing.T, rt *repro.Runtime) nodeCounts {
	t.Helper()
	if lv := rt.LiveTasks(); lv != 0 {
		t.Fatalf("LiveTasks = %d at quiescence", lv)
	}
	rt.Close()
	tr := rt.Tracer()
	if d := tr.Drops(); d != 0 {
		t.Fatalf("trace dropped %d events: raise the capacity", d)
	}
	n := nodeCounts{continued: map[int]int{}, offers: map[int]int{}}
	for _, evs := range tr.Snapshot().PerCore {
		for _, e := range evs {
			switch e.Kind {
			case trace.KTaskCreate:
				n.tasks++
			case trace.KNodeContinue:
				n.continued[int(e.Arg)]++
			case trace.KNodeOffer:
				n.offers[int(e.Arg)]++
			case trace.KCellSteal:
				n.steals++
			}
		}
	}
	return n
}

// chainGraph is n nodes in a line, node i computing i from node i-1;
// body(c, i) runs first in node i and may fail it.
func chainGraph(n int, body func(c *repro.Ctx, i int) error) *repro.Graph {
	g := repro.NewGraph()
	for i := 0; i < n; i++ {
		var deps []string
		if i > 0 {
			deps = []string{chainName(i - 1)}
		}
		g.Add(chainName(i), deps, func(c *repro.Ctx, d map[string]any) (any, error) {
			if err := body(c, i); err != nil {
				return nil, err
			}
			if i > 0 && d[deps[0]].(int) != i-1 {
				return nil, fmt.Errorf("node %d read %v from its dependency", i, d[deps[0]])
			}
			return i, nil
		})
	}
	return g
}

func chainName(i int) string { return fmt.Sprintf("c%05d", i) }

// stackDepth is the number of frames on the calling goroutine's stack.
func stackDepth() int {
	pcs := make([]uintptr, 256)
	return runtime.Callers(0, pcs)
}

// TestCompiledChainIsOneTask: a 10 000-node chain is served by the
// request's root task alone — every node is continued, once, and none is
// spawned — and the last body runs at the stack depth of the first: the
// continuation is a loop, not a recursion.
func TestCompiledChainIsOneTask(t *testing.T) {
	const n, reqs = 10_000, 3
	rt := tracedRuntime()
	var depth [n]int
	cg, err := chainGraph(n, func(_ *repro.Ctx, i int) error {
		depth[i] = stackDepth()
		return nil
	}).Compile(rt)
	if err != nil {
		t.Fatal(err)
	}
	for req := 0; req < reqs; req++ {
		e, err := cg.Do(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if v, err := e.ValueAt(n - 1); err != nil || v.(int) != n-1 {
			t.Fatalf("tail = %v, %v", v, err)
		}
		e.Release()
		if depth[n-1] != depth[0] || depth[0] >= 256 {
			t.Fatalf("stack depth %d in the first body, %d in the last", depth[0], depth[n-1])
		}
	}
	tasks, cont := traceCounts(t, rt)
	if tasks != reqs {
		t.Fatalf("%d requests created %d tasks, want the root of each alone", reqs, tasks)
	}
	if len(cont) != n {
		t.Fatalf("%d distinct nodes continued, want all %d", len(cont), n)
	}
	for i, k := range cont {
		if k != reqs {
			t.Fatalf("node %d continued %d times over %d requests", i, k, reqs)
		}
	}
}

// benchShape is the benchmark's seven-node template (graph_closed): one
// source fanning out to three, joined pairwise down to one sink.
func benchShape() *repro.Graph {
	g := repro.NewGraph()
	for _, n := range []struct {
		name string
		deps []string
	}{
		{"ticket", nil},
		{"auth", []string{"ticket"}},
		{"inventory", []string{"ticket"}},
		{"promo", []string{"ticket"}},
		{"price", []string{"auth", "inventory"}},
		{"quote", []string{"price", "promo"}},
		{"render", []string{"quote", "ticket"}},
	} {
		g.Add(n.name, n.deps, func(_ *repro.Ctx, d map[string]any) (any, error) {
			v := 1
			for _, dep := range n.deps {
				v += d[dep].(int)
			}
			return v, nil
		})
	}
	return g
}

// TestCompiledBenchmarkShapeIsOneTask: a request of the benchmark's
// template is one task, its root. The root continues the source, and
// every join is continued by whichever thread completes it; the two
// siblings the source's fan-out offers wait in the serving slot's cells
// and are taken back by the root's Taskwait and run as calls. The trace
// accounts for all seven nodes of every request: five node-continue
// and two node-offer events — less one per offer a worker stole, which
// a cell-steal and a task of its own account for instead.
func TestCompiledBenchmarkShapeIsOneTask(t *testing.T) {
	rt := tracedRuntime()
	cg, err := benchShape().Compile(rt)
	if err != nil {
		t.Fatal(err)
	}
	const reqs = 200
	for i := 0; i < reqs; i++ {
		e, err := cg.Do(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// ticket 1; auth, inventory, promo 2; price 5; quote 8; render 10.
		if v, err := e.Value("render"); err != nil || v.(int) != 10 {
			t.Fatalf("render = %v, %v", v, err)
		}
		e.Release()
	}
	n := closedTrace(t, rt)
	sum := func(m map[int]int) (k int) {
		for _, v := range m {
			k += v
		}
		return k
	}
	cont, offered := sum(n.continued), sum(n.offers)
	if cont != 5*reqs {
		t.Fatalf("%d requests continued %d nodes, want five each", reqs, cont)
	}
	if n.tasks != reqs+n.steals || offered+n.steals != 2*reqs {
		t.Fatalf("%d requests: %d tasks, %d offers run as calls, %d stolen; want one task each, two offers each, and a task per steal",
			reqs, n.tasks, offered, n.steals)
	}
	for i := range n.offers {
		if name := cg.NodeName(i); name != "inventory" && name != "promo" {
			t.Fatalf("node %s was offered; only the source's second and third successors are", name)
		}
	}
	if n.steals > reqs/10 {
		t.Fatalf("%d of %d offers stolen: the holder no longer takes its offers back", n.steals, 2*reqs)
	}
	t.Logf("%d of %d offers stolen", n.steals, 2*reqs)
}

// TestCompiledChainStopsMidway: a FailFast failure, a context cancel
// and a DoTimeout expiry landing in the body of node `at` of a chain
// each leave every later node unrun, reporting the skip with the right
// cause, create no task for them beyond the one the closed gate sends
// through the scheduler to be drained, and leave the frame reusable.
func TestCompiledChainStopsMidway(t *testing.T) {
	const n, at, rounds = 12, 5, 3
	boom := errors.New("boom")
	for _, tc := range []struct {
		name  string
		stop  func(c *repro.Ctx, cancel context.CancelFunc) error
		d     time.Duration
		cause error
	}{
		{"failfast", func(*repro.Ctx, context.CancelFunc) error { return boom }, 0, boom},
		{"cancel", func(c *repro.Ctx, cancel context.CancelFunc) error {
			cancel()
			return waitAborted(c)
		}, 0, context.Canceled},
		{"timeout", func(c *repro.Ctx, _ context.CancelFunc) error { return waitAborted(c) },
			5 * time.Millisecond, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := tracedRuntime()
			var armed atomic.Bool
			var cancel context.CancelFunc
			var ran [n]atomic.Int32
			cg, err := chainGraph(n, func(c *repro.Ctx, i int) error {
				ran[i].Add(1)
				if i == at && armed.Load() {
					return tc.stop(c, cancel)
				}
				return nil
			}).Compile(rt)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < rounds; round++ {
				var ctx context.Context
				ctx, cancel = context.WithCancel(context.Background())
				armed.Store(true)
				e, err := cg.DoTimeout(ctx, tc.d)
				if !errors.Is(err, tc.cause) {
					t.Fatalf("aggregate = %v, want %v", err, tc.cause)
				}
				for i := 0; i < n; i++ {
					v, err := e.ValueAt(i)
					switch {
					case i < at, i == at && tc.cause != boom:
						if err != nil || v.(int) != i {
							t.Fatalf("node %d = %v, %v, want it to have run", i, v, err)
						}
					case i == at:
						if !errors.Is(err, boom) || errors.Is(err, repro.ErrTaskSkipped) {
							t.Fatalf("failing node: %v", err)
						}
					default:
						if !errors.Is(err, repro.ErrTaskSkipped) || !errors.Is(err, tc.cause) {
							t.Fatalf("node %d: %v, want a skip caused by %v", i, err, tc.cause)
						}
						if ran[i].Load() != int32(round) {
							t.Fatalf("node %d ran in a stopped request", i)
						}
					}
				}
				e.Release()
				cancel()

				// The same frame serves a clean request next.
				armed.Store(false)
				e, err = cg.Do(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if v, err := e.ValueAt(n - 1); err != nil || v.(int) != n-1 {
					t.Fatalf("clean request after a stopped one: tail = %v, %v", v, err)
				}
				e.Release()
			}
			// A stopped request is its root and the one node the closed
			// gate sent through the scheduler to be drained; a clean one
			// is its root.
			tasks, cont := traceCounts(t, rt)
			if tasks != 3*rounds {
				t.Fatalf("%d tasks over %d stopped and %d clean requests, want %d", tasks, rounds, rounds, 3*rounds)
			}
			for i := 0; i < n; i++ {
				want := rounds
				if i <= at {
					want = 2 * rounds
				}
				if cont[i] != want {
					t.Fatalf("node %d continued %d times, want %d", i, cont[i], want)
				}
			}
		})
	}
}

// waitAborted holds a node body until its request's scope is cancelled.
func waitAborted(c *repro.Ctx) error {
	for t0 := time.Now(); c.Err() == nil; {
		if time.Since(t0) > 10*time.Second {
			return errors.New("the scope was never cancelled")
		}
		runtime.Gosched()
	}
	return nil
}

// TestCompiledChainYieldsToElevated mirrors core's TestBypassGates for
// the continuation: while an elevated task is queued in the serving
// thread's domain, a level-0 chain does not go on as a call — the next
// node is spawned, the policy orders the two, and the elevated task
// starts before the chain's tail. The one worker is held busy so the
// elevated task stays queued until the serving thread itself polls.
func TestCompiledChainYieldsToElevated(t *testing.T) {
	const n, at = 8, 2
	rt := tracedRuntime(repro.WithWorkers(1))

	started, release := make(chan struct{}), make(chan struct{})
	busy := repro.Submit(rt, func(*repro.Ctx) (int, error) {
		close(started)
		<-release
		return 0, nil
	})
	<-started

	var mu sync.Mutex
	var order []string
	record := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	reached, queued := make(chan struct{}), make(chan struct{})
	var elevated *repro.Future[int]
	go func() {
		<-reached
		elevated = repro.Submit(rt, func(*repro.Ctx) (int, error) {
			record("elevated")
			return 0, nil
		}, repro.WithPriority(repro.MaxPriority))
		close(queued)
	}()
	cg, err := chainGraph(n, func(_ *repro.Ctx, i int) error {
		record(chainName(i))
		if i == at {
			close(reached)
			<-queued
		}
		return nil
	}).Compile(rt)
	if err != nil {
		t.Fatal(err)
	}
	e, err := cg.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	e.Release()
	close(release)
	for _, f := range []*repro.Future[int]{busy, elevated} {
		if _, err := f.Wait(nil); err != nil {
			t.Fatal(err)
		}
	}
	var want []string
	for i := 0; i < n; i++ {
		want = append(want, chainName(i))
		if i == at {
			want = append(want, "elevated")
		}
	}
	if !slices.Equal(order, want) {
		t.Fatalf("start order %v, want %v", order, want)
	}
	// The busy root, the request's root, the node spawned at the closed
	// gate and the elevated root; the chain's tail went on inside the
	// spawned node.
	tasks, cont := traceCounts(t, rt)
	if tasks != 4 || cont[at+1] != 0 || len(cont) != n-1 {
		t.Fatalf("%d tasks, continued nodes %v: want node %d spawned and every other continued", tasks, cont, at+1)
	}
}

// TestCompiledMixedLevelsNeverContinueAcross: a chain whose nodes
// change priority level and deadline offset along the way continues
// only where both stay the same, and every body reads its declared
// level — clamped to [0, MaxPriority], so out-of-range declarations of
// one level continue into each other — and its own deadline — request
// start plus offset, 0 without one — as it would in a task of its own.
func TestCompiledMixedLevelsNeverContinueAcross(t *testing.T) {
	type attr struct {
		pri int
		dl  time.Duration
	}
	attrs := []attr{
		{-1, 0}, {0, 0}, // level 0 below the range: continued from the root, then from each other
		{2, 0}, {2, 0}, // level change: spawned, then continued
		{0, 0},                         // back down: spawned
		{2, time.Hour}, {2, time.Hour}, // level and deadline change: spawned, then continued
		{2, 2 * time.Hour},                                 // deadline change alone: spawned
		{2, 0},                                             // deadline dropped: spawned
		{repro.MaxPriority + 6, 0}, {repro.MaxPriority, 0}, // the top level above the range: spawned, then continued
	}
	wantCont := []int{0, 1, 3, 6, 10}
	n := len(attrs)
	const reqs = 20
	rt := tracedRuntime()
	pri, dl := make([]int, n), make([]int64, n)
	g := chainGraph(n, func(c *repro.Ctx, i int) error {
		pri[i], dl[i] = c.Priority(), c.Deadline()
		return nil
	})
	for i, a := range attrs {
		if a.pri != 0 {
			g.SetPriority(chainName(i), a.pri)
		}
		if a.dl != 0 {
			g.SetDeadline(chainName(i), a.dl)
		}
	}
	cg, err := g.Compile(rt)
	if err != nil {
		t.Fatal(err)
	}
	for req := 0; req < reqs; req++ {
		lo := repro.NowNS()
		e, err := cg.Do(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		e.Release()
		hi := repro.NowNS()
		var base int64
		for i, a := range attrs {
			if want := min(max(a.pri, 0), repro.MaxPriority); pri[i] != want {
				t.Fatalf("node %d read priority %d, want %d", i, pri[i], want)
			}
			if a.dl == 0 {
				if dl[i] != 0 {
					t.Fatalf("deadline-less node %d read deadline %d", i, dl[i])
				}
				continue
			}
			b := dl[i] - a.dl.Nanoseconds()
			if base == 0 {
				base = b
			}
			if b != base || b < lo || b > hi {
				t.Fatalf("node %d read deadline %d: request start %d, want %d in [%d, %d]", i, dl[i], b, base, lo, hi)
			}
		}
	}
	tasks, cont := traceCounts(t, rt)
	if want := reqs * (1 + n - len(wantCont)); tasks != want {
		t.Fatalf("%d tasks over %d requests, want %d", tasks, reqs, want)
	}
	for i := 0; i < n; i++ {
		want := 0
		if slices.Contains(wantCont, i) {
			want = reqs
		}
		if cont[i] != want {
			t.Fatalf("node %d continued %d times over %d requests, want %d", i, cont[i], reqs, want)
		}
	}
}

// TestCompiledContinuedNodeTaskwait: a continued node is a call inside
// another node's task, and may still spawn children and wait for them —
// with a sibling of the chain outstanding in the same task, which the
// Taskwait then also waits for (or runs).
func TestCompiledContinuedNodeTaskwait(t *testing.T) {
	rt := tracedRuntime()
	var children atomic.Int32
	g := repro.NewGraph().
		Add("src", nil, func(*repro.Ctx, map[string]any) (any, error) { return 1, nil }).
		Add("waiter", []string{"src"}, func(c *repro.Ctx, _ map[string]any) (any, error) {
			before := children.Load()
			for i := 0; i < 8; i++ {
				c.Spawn(func(*repro.Ctx) { children.Add(1) })
			}
			c.Taskwait()
			return int(children.Load() - before), nil
		}).
		Add("sibling", []string{"src"}, func(*repro.Ctx, map[string]any) (any, error) { return 5, nil }).
		Add("sink", []string{"waiter", "sibling"}, func(_ *repro.Ctx, d map[string]any) (any, error) {
			return d["waiter"].(int) + d["sibling"].(int), nil
		})
	cg, err := g.Compile(rt)
	if err != nil {
		t.Fatal(err)
	}
	waiter, _ := cg.NodeIndex("waiter")
	for i := 0; i < 200; i++ {
		e, err := cg.Do(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if v, err := e.Value("sink"); err != nil || v.(int) != 13 {
			t.Fatalf("sink = %v, %v", v, err)
		}
		e.Release()
	}
	if _, cont := traceCounts(t, rt); cont[waiter] != 200 {
		t.Fatalf("the waiting node was continued %d times of 200: the test no longer covers a continued node", cont[waiter])
	}
}

// TestCompiledCallSpawnsAndWaits: the two fan-out siblings of a request
// served inline run as calls inside the request's root — one continued,
// the other offered and taken back — and each spawns children and waits
// for them there, once past the spawn window. Their children are
// counted on the root's thread: each Taskwait returns with the node's
// own children run, and the runtime ends with no live task.
func TestCompiledCallSpawnsAndWaits(t *testing.T) {
	rt := tracedRuntime()
	const reqs = 20
	var kids [2]atomic.Int64
	k := 0
	spawner := func(j int) repro.GraphFunc {
		return func(c *repro.Ctx, _ map[string]any) (any, error) {
			before := kids[j].Load()
			for range k {
				c.Spawn(func(*repro.Ctx) { kids[j].Add(1) })
			}
			c.Taskwait()
			if got := kids[j].Load() - before; got != int64(k) {
				return nil, fmt.Errorf("Taskwait returned with %d of %d children run", got, k)
			}
			return j + 1, nil
		}
	}
	g := repro.NewGraph().
		Add("src", nil, func(*repro.Ctx, map[string]any) (any, error) { return 0, nil }).
		Add("left", []string{"src"}, spawner(0)).
		Add("right", []string{"src"}, spawner(1)).
		Add("sink", []string{"left", "right"}, func(_ *repro.Ctx, d map[string]any) (any, error) {
			return d["left"].(int) + d["right"].(int), nil
		})
	cg, err := g.Compile(rt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < reqs; i++ {
		k = 16
		if i == 0 {
			k = 2100 // past the 2 048-child spawn window
		}
		e, err := cg.Do(context.Background())
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if v, err := e.Value("sink"); err != nil || v.(int) != 3 {
			t.Fatalf("request %d: sink = %v, %v", i, v, err)
		}
		e.Release()
	}
	l, _ := cg.NodeIndex("left")
	r, _ := cg.NodeIndex("right")
	n := closedTrace(t, rt)
	cont, offered := n.continued[l]+n.continued[r], n.offers[l]+n.offers[r]
	if cont == 0 || offered == 0 {
		t.Fatalf("%d continued and %d offered spawning nodes over %d requests: the test no longer covers both calls", cont, offered, reqs)
	}
	t.Logf("%d continued, %d offered and taken back, %d stolen", cont, offered, n.steals)
}

// TestCompiledNodeStatsOncePerNode: WithNodeStats sees every node of a
// request exactly once, continued or spawned.
func TestCompiledNodeStatsOncePerNode(t *testing.T) {
	rt := repro.New(repro.WithWorkers(2))
	defer rt.Close()
	var mu sync.Mutex
	seen := map[string]int{}
	cg, err := benchShape().Compile(rt, repro.WithNodeStats(func(s repro.NodeStat) {
		mu.Lock()
		seen[s.Name]++
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	const reqs = 300
	for i := 0; i < reqs; i++ {
		e, err := cg.Do(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		e.Release()
	}
	if len(seen) != cg.Len() {
		t.Fatalf("stats for %d nodes, want %d", len(seen), cg.Len())
	}
	for name, k := range seen {
		if k != reqs {
			t.Fatalf("node %s reported %d times over %d requests", name, k, reqs)
		}
		if c := cg.NodeLatency(name).Count(); c != reqs {
			t.Fatalf("node %s histogram holds %d samples, want %d", name, c, reqs)
		}
	}
}
