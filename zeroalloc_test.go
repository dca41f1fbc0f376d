package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro"
)

// TestHotPathsAllocateNothing pins the runtime's zero-allocation
// property at steady state: spawning, registering, scheduling,
// releasing and completing a task — and serving a request from a
// compiled template — allocate nothing once pools, queues and free
// lists are warm. Each shape runs once to warm up and once measured;
// the tolerance (one allocation per ten operations) absorbs the per-Run
// constants (handle, scope) and the amortized growth of pools and
// queues when a run's live population peaks higher than the warm-up's
// (a few hundred allocations at most, timing-dependent), and is far
// below the 1/op any per-task allocation would show.
func TestHotPathsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const ops, stride = 1 << 15, 1024
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()
	nop := func(*repro.Ctx) {}
	var cells [4]float64

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
	ctx := context.Background()

	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"spawn", spawnLoop(func(c *repro.Ctx, _ int) { c.Spawn(nop) })},
		{"chain", spawnLoop(func(c *repro.Ctx, i int) {
			// Two accesses, ping-ponged: each release readies exactly
			// the next task.
			c.Spawn(nop, repro.In(&cells[i%2]), repro.Out(&cells[1-i%2]))
		})},
		{"inline-access-cap", spawnLoop(func(c *repro.Ctx, _ int) {
			c.Spawn(nop, repro.InOut(&cells[0]), repro.InOut(&cells[1]),
				repro.InOut(&cells[2]), repro.InOut(&cells[3]))
		})},
		{"fanout", spawnLoop(func(c *repro.Ctx, i int) {
			// One writer, then 64 readers that become ready together.
			if i%65 == 0 {
				c.Spawn(nop, repro.Out(&cells[0]))
			} else {
				c.Spawn(nop, repro.In(&cells[0]))
			}
		})},
		{"compiled-do", func() error {
			for i := 0; i < ops; i++ {
				e, err := cg.Do(ctx)
				if err != nil {
					return err
				}
				if v, err := e.ValueAt(render); err != nil || v.(int) != (21+13+7+21)^1 {
					return fmt.Errorf("render = %v, %v", v, err)
				}
				e.Release()
			}
			return nil
		}},
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
			if n := after.Mallocs - before.Mallocs; n*10 > ops {
				t.Fatalf("%d allocations over %d operations, want none per operation", n, ops)
			}
		})
	}
}
