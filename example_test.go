package repro_test

import (
	"context"
	"fmt"
	"time"

	"repro"
)

// ExampleGraph_Compile compiles a named-task graph once and serves it
// repeatedly from pooled frames: the steady-state Do/Value/Release
// cycle allocates nothing.
func ExampleGraph_Compile() {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()

	g := repro.NewGraph().
		Add("fetch", nil, func(*repro.Ctx, map[string]any) (any, error) {
			return 20, nil
		}).
		Add("render", []string{"fetch"}, func(_ *repro.Ctx, deps map[string]any) (any, error) {
			return deps["fetch"].(int)*2 + 2, nil
		})
	cg, err := g.Compile(rt)
	if err != nil {
		panic(err)
	}
	for req := 0; req < 3; req++ {
		e, err := cg.Do(context.Background())
		if err != nil {
			panic(err)
		}
		v, _ := e.Value("render")
		fmt.Println(v)
		e.Release()
	}
	// Output:
	// 42
	// 42
	// 42
}

// ExampleCtx_Await joins a child future from inside a task body. Await
// executes other ready tasks on the worker while it waits, so blocking
// on a future never idles the pool (the typed wrapper repro.Await
// calls Ctx.Await underneath).
func ExampleCtx_Await() {
	rt := repro.New(repro.WithWorkers(2))
	defer rt.Close()

	err := rt.Run(func(c *repro.Ctx) {
		f := repro.Go(c, func(*repro.Ctx) (string, error) {
			return "hello", nil
		})
		v, err := repro.Await(c, f)
		fmt.Println(v, err)
	})
	if err != nil {
		panic(err)
	}
	// Output: hello <nil>
}

// ExampleWithPriority shows the priority clause ordering ready tasks:
// with the runtime's only worker held busy, a later MaxPriority
// submission overtakes an earlier default-priority one.
func ExampleWithPriority() {
	rt := repro.New(repro.WithWorkers(1))
	defer rt.Close()

	// Hold the only worker so the submissions below queue together.
	running, release := make(chan struct{}), make(chan struct{})
	gate := repro.Submit(rt, func(*repro.Ctx) (int, error) {
		close(running)
		<-release
		return 0, nil
	})
	<-running

	say := func(s string) func(*repro.Ctx) (string, error) {
		return func(*repro.Ctx) (string, error) { fmt.Println(s); return s, nil }
	}
	batch := repro.Submit(rt, say("batch"))
	interactive := repro.Submit(rt, say("interactive"),
		repro.WithPriority(repro.MaxPriority))
	close(release)
	interactive.Wait(nil)
	batch.Wait(nil)
	gate.Wait(nil)
	// Output:
	// interactive
	// batch
}

// ExampleWithDeadline shows earliest-deadline-first ordering on a
// WithEDF runtime: among queued tasks of the top priority level, the
// one whose deadline expires sooner runs first regardless of
// submission order.
func ExampleWithDeadline() {
	rt := repro.New(repro.WithWorkers(1), repro.WithEDF())
	defer rt.Close()

	running, release := make(chan struct{}), make(chan struct{})
	gate := repro.Submit(rt, func(*repro.Ctx) (int, error) {
		close(running)
		<-release
		return 0, nil
	})
	<-running

	say := func(s string) func(*repro.Ctx) (string, error) {
		return func(*repro.Ctx) (string, error) { fmt.Println(s); return s, nil }
	}
	relaxed := repro.Submit(rt, say("relaxed"),
		repro.WithPriority(repro.MaxPriority), repro.WithDeadline(time.Second))
	urgent := repro.Submit(rt, say("urgent"),
		repro.WithPriority(repro.MaxPriority), repro.WithDeadline(10*time.Millisecond))
	close(release)
	urgent.Wait(nil)
	relaxed.Wait(nil)
	gate.Wait(nil)
	// Output:
	// urgent
	// relaxed
}

// ExampleWithTopology shapes the worker pool topology-first: four
// workers whose sync scheduler buffers insertions in one SPSC queue per
// NUMA node, two nodes here (paper §3.1). Stats reports the pool the
// topology built.
func ExampleWithTopology() {
	rt := repro.New(repro.WithTopology(repro.Topology{
		Workers:   4,
		NUMANodes: 2,
	}))
	defer rt.Close()

	if err := rt.Run(func(c *repro.Ctx) {
		for i := 0; i < 64; i++ {
			c.Spawn(func(*repro.Ctx) {})
		}
		c.Taskwait()
	}); err != nil {
		panic(err)
	}

	fmt.Println("workers:", rt.Stats().Workers)
	// Output:
	// workers: 4
}
