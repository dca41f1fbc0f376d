package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro"
)

// TestHotPathsAllocateNothing pins the runtime's zero-allocation
// property at steady state: spawning, registering, scheduling,
// releasing and completing a task of up to deps.InlineAccessCap
// accesses — and serving a request from a compiled template, fan-out
// siblings and elevated or deadlined nodes included — allocate nothing
// once pools, queues and free
// lists are warm. Each shape runs once to warm up and once measured;
// the tolerance (one allocation per ten operations) absorbs the per-Run
// constants (handle, scope) and the amortized growth of pools and
// queues when a run's live population peaks higher than the warm-up's
// (a few hundred allocations at most, timing-dependent), and is far
// below the 1/op any per-task allocation would show.
//
// The taskloop row is the exception: a Run of one work-sharing loop with
// a reduction has a per-Run constant, and the row pins it (see
// taskloopRun) instead of demanding zero.
func TestHotPathsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const ops, stride = 1 << 15, 1024
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()
	nop := func(*repro.Ctx) {}
	var cells [4]float64
	var grid [8][8]float64

	// spawnLoop runs ops spawns inside one root, with a taskwait every
	// stride so the live-task population stays at steady state.
	spawnLoop := func(spawn func(c *repro.Ctx, i int)) func() error {
		return func() error {
			return rt.Run(func(c *repro.Ctx) {
				for i := 0; i < ops; i++ {
					spawn(c, i)
					if i%stride == stride-1 {
						c.Taskwait()
					}
				}
				c.Taskwait()
			})
		}
	}

	// The seven-node serving template. Results are small ints, which Go
	// boxes without allocating, so the count isolates the serving
	// machinery.
	small := func(v int) repro.GraphFunc {
		return func(*repro.Ctx, map[string]any) (any, error) { return v, nil }
	}
	sum := func(a, b string) repro.GraphFunc {
		return func(_ *repro.Ctx, d map[string]any) (any, error) {
			return (d[a].(int) + d[b].(int)) & 0xff, nil
		}
	}
	cg, err := repro.NewGraph().
		Add("auth", nil, small(7)).
		Add("user", nil, small(21)).
		Add("inv", nil, small(13)).
		Add("price", []string{"user", "inv"}, sum("user", "inv")).
		Add("promo", []string{"auth", "user"}, sum("auth", "user")).
		Add("quote", []string{"price", "promo"}, sum("price", "promo")).
		Add("render", []string{"quote"}, func(_ *repro.Ctx, d map[string]any) (any, error) {
			return d["quote"].(int) ^ 1, nil
		}).
		Compile(rt)
	if err != nil {
		t.Fatal(err)
	}
	render, _ := cg.NodeIndex("render")

	// One source, four successors, one sink: the thread that finishes
	// the source keeps one successor and spawns the other three plainly,
	// the sibling path of a compiled fan-out.
	fan := repro.NewGraph().Add("src", nil, small(3))
	for _, name := range []string{"a", "b", "c", "d"} {
		fan.Add(name, []string{"src"}, func(_ *repro.Ctx, d map[string]any) (any, error) {
			return d["src"].(int) + 1, nil
		})
	}
	fcg, err := fan.Add("sink", []string{"a", "b", "c", "d"}, func(_ *repro.Ctx, d map[string]any) (any, error) {
		return d["a"].(int) + d["b"].(int) + d["c"].(int) + d["d"].(int), nil
	}).Compile(rt)
	if err != nil {
		t.Fatal(err)
	}
	sink, _ := fcg.NodeIndex("sink")
	// The same fan-out with one node at level 2 and two with deadlines:
	// every node's task is spawned with its level and deadline stated.
	acg, err := fan.SetPriority("a", 2).SetDeadline("b", time.Second).
		SetDeadline("sink", 2*time.Second).Compile(rt)
	if err != nil {
		t.Fatal(err)
	}

	// doLoop serves ops requests from cg, each with deadline d (0: none,
	// which is Do), and checks node out of each.
	ctx := context.Background()
	doLoop := func(cg *repro.CompiledGraph, d time.Duration, out, want int) func() error {
		return func() error {
			for i := 0; i < ops; i++ {
				e, err := cg.DoTimeout(ctx, d)
				if err != nil {
					return err
				}
				if v, err := e.ValueAt(out); err != nil || v.(int) != want {
					return fmt.Errorf("node %d = %v, %v, want %d", out, v, err, want)
				}
				e.Release()
			}
			return nil
		}
	}

	loopRT := repro.New(repro.WithWorkers(2))
	defer loopRT.Close()
	oneRT := repro.New(repro.WithWorkers(1))
	defer oneRT.Close()

	for _, tc := range []struct {
		name string
		run  func() error
		ops  int
		max  int // allocations allowed over ops operations
	}{
		{"spawn", spawnLoop(func(c *repro.Ctx, _ int) { c.Spawn(nop) }), ops, ops / 10},
		{"chain", spawnLoop(func(c *repro.Ctx, i int) {
			// Two accesses, ping-ponged: each release readies exactly
			// the next task.
			c.Spawn(nop, repro.In(&cells[i%2]), repro.Out(&cells[1-i%2]))
		}), ops, ops / 10},
		{"inout4", spawnLoop(func(c *repro.Ctx, _ int) {
			c.Spawn(nop, repro.InOut(&cells[0]), repro.InOut(&cells[1]),
				repro.InOut(&cells[2]), repro.InOut(&cells[3]))
		}), ops, ops / 10},
		{"stencil5", spawnLoop(func(c *repro.Ctx, i int) {
			// The five-point stencil on a torus, swept row by row: five
			// distinct accesses per task (deps.InlineAccessCap), each
			// task a successor of its wavefront neighbours.
			const n = len(grid)
			bi, bj := i/n%n, i%n
			c.Spawn(nop, repro.InOut(&grid[bi][bj]),
				repro.In(&grid[(bi+n-1)%n][bj]), repro.In(&grid[bi][(bj+n-1)%n]),
				repro.In(&grid[(bi+1)%n][bj]), repro.In(&grid[bi][(bj+1)%n]))
		}), ops, ops / 10},
		{"fanout", spawnLoop(func(c *repro.Ctx, i int) {
			// One writer, then 64 readers that become ready together.
			if i%65 == 0 {
				c.Spawn(nop, repro.Out(&cells[0]))
			} else {
				c.Spawn(nop, repro.In(&cells[0]))
			}
		}), ops, ops / 10},
		{"compiled-do", doLoop(cg, 0, render, (21+13+7+21)^1), ops, ops / 10},
		{"compiled-timeout", doLoop(cg, time.Hour, render, (21+13+7+21)^1), ops, ops / 10},
		{"compiled-fanout", doLoop(fcg, 0, sink, 16), ops, ops / 10},
		{"compiled-fanout-attrs", doLoop(acg, 0, sink, 16), ops, ops / 10},
		{"taskloop", taskloopRun(loopRT, loopOps), loopOps, 7 * loopOps},
		{"submit", submitRing(rt, ops, 1024, nopSubmit), ops, 2 * ops},
		{"submit-after", submitRing(rt, afterOps, 1, afterSubmit), afterOps, 2*afterOps + afterOps/10},
		{"spawn-window", spawnWindowRun(oneRT), 4 * spawnWindow, 4 * spawnWindow / 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.run()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			n := after.Mallocs - before.Mallocs
			t.Logf("%d allocations over %d operations (%.2f per operation)", n, tc.ops, float64(n)/float64(tc.ops))
			if n > uint64(tc.max) {
				t.Fatalf("%d allocations over %d operations, want at most %d", n, tc.ops, tc.max)
			}
		})
	}
}

// nopSubmit is the submit row's body: package-level, so it allocates no
// closure.
func nopSubmit(*repro.Ctx) (struct{}, error) { return struct{}{}, nil }

// afterSubmit is the submit-after row's body: it defers its task's
// completion on a timer. The row waits for each Submit at once, so Wait
// finds the timer pending and makes the Future's done channel. The
// event counter lives in the Future's Handle and the timer queue's
// entry holds it without a closure, so the timer allocates nothing: the
// row allows the Future and its done channel, about two per operation.
func afterSubmit(c *repro.Ctx) (struct{}, error) {
	c.After(100 * time.Microsecond)
	return struct{}{}, nil
}

// afterOps is the submit-after row's operation count: each waits out
// its timer, so the row takes about afterOps × 100 µs.
const afterOps = 1 << 12

// submitRing is the submit rows' shape: n repro.Submits of body, each
// with one InOut on the next of ring rotating cells, each waited in
// submission order before its cell is reused. A Submit allocates its
// Future, plus the Future's done channel when Wait arrives before the
// task completed: at most two, and the rows fail above that. Every
// other piece of a root submission — scope, shell, the chain tail a
// later root replaces — comes from a pool.
func submitRing(rt *repro.Runtime, n, ring int, body func(*repro.Ctx) (struct{}, error)) func() error {
	cells := make([]float64, ring)
	futs := make([]*repro.Future[struct{}], ring)
	return func() error {
		for i := 0; i < n+ring; i++ {
			j := i % ring
			if f := futs[j]; f != nil {
				if _, err := f.Wait(nil); err != nil {
					return err
				}
			}
			futs[j] = nil
			if i < n {
				futs[j] = repro.Submit(rt, body, repro.InOut(&cells[j]))
			}
		}
		return nil
	}
}

// spawnWindow mirrors internal/core's spawn window: once a task has
// more children than this in flight, Spawn runs ready tasks first.
const spawnWindow = 2048

// nopSpawn is the spawn-window row's body: package-level, so it
// allocates no closure.
func nopSpawn(*repro.Ctx) {}

// spawnWindowRun is the spawn-window row's shape: one root spawning
// 4 × spawnWindow children of nopSpawn with no Taskwait until the end,
// on a one-worker runtime, so the creator passes the window again and
// again and every child after the first window runs inside a Spawn.
// It pins that the help loop allocates nothing.
func spawnWindowRun(rt *repro.Runtime) func() error {
	return func() error {
		return rt.Run(func(c *repro.Ctx) {
			for range 4 * spawnWindow {
				c.Spawn(nopSpawn)
			}
			c.Taskwait()
		})
	}
}

// loopOps is the number of Runs the taskloop row measures (and warms up
// with: the first few hundred Runs of a fresh runtime cost up to one
// allocation more each while the shell free lists settle).
const loopOps = 2048

// taskloopRun is the taskloop row's shape: n times rt.Run of one
// work-sharing Loop with a sum reduction over a 1e5-element dot product
// (BenchmarkAblationTaskloopGrain's, adaptive grain). It costs 6.0
// allocations per Run on two workers and the row fails above seven — the
// constant was five once, and ROADMAP lists the regression as open. No
// single pair of allocations accounts for it; a profile
// (-memprofilerate 1, three thousand Runs from cold) finds, per Run:
//
//   - 2: the Run's Handle and the done channel its Wait makes while the
//     loop still runs (core.RunCtx);
//   - 2: the reduction group and its per-worker slot table
//     (deps.newGroup), built for every registration of a reduction
//     access and not pooled;
//   - 1 per worker that claims a chunk, ~0.7 measured: its private
//     reduction slot (deps.(*group).slot) — the term that grows with the
//     pool, which is why this row runs on two workers (2+2+2 leaves one
//     for what follows on any host) and why the eight-worker ablation
//     benchmark reports 8–9;
//   - ~0.3 each, together, averaged from cold and rarer once warm: a
//     fresh root shell (alloc.Pooled.Get falling through to new), the
//     map of its child dependency domain and that map's first bucket
//     (deps.(*WaitFree).linkInto). A root shell is taken on a submitter
//     slot and recycled on the worker slot that completed it, so the
//     submitter's free list misses until the global list hands a batch
//     back. The unpooled group pair is the likeliest "two extra";
//     pooling groups or homing root shells is not a one-line change, so
//     the row pins the constant and leaves it.
func taskloopRun(rt *repro.Runtime, n int) func() error {
	const iters = 100_000
	x, y := make([]float64, iters), make([]float64, iters)
	want := 0.0
	for i := range x {
		x[i], y[i] = float64(1+i%7), float64(1+i%5)
		want += x[i] * y[i]
	}
	var result float64
	chunk := func(c *repro.Ctx, lo, hi int) {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += x[i] * y[i]
		}
		c.ReductionBuffer(&result)[0] += s
	}
	body := func(c *repro.Ctx) {
		c.Loop(0, iters, 0, chunk, repro.RedSum(&result, 1))
		c.Taskwait()
	}
	return func() error {
		for i := 0; i < n; i++ {
			result = 0
			if err := rt.Run(body); err != nil {
				return err
			}
			if result != want {
				return fmt.Errorf("dot product = %v, want %v", result, want)
			}
		}
		return nil
	}
}
