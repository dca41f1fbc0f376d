package repro_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro"
)

func TestGraphValues(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()

	g := repro.NewGraph().
		Add("a", nil, func(c *repro.Ctx, _ map[string]any) (any, error) {
			return 2, nil
		}).
		Add("b", nil, func(c *repro.Ctx, _ map[string]any) (any, error) {
			return 3, nil
		}).
		Add("mul", []string{"a", "b"}, func(c *repro.Ctx, deps map[string]any) (any, error) {
			return deps["a"].(int) * deps["b"].(int), nil
		}).
		Add("add", []string{"mul", "a"}, func(c *repro.Ctx, deps map[string]any) (any, error) {
			return deps["mul"].(int) + deps["a"].(int), nil
		})
	res, err := g.Run(context.Background(), rt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	v, err := repro.Value[int](res, "add")
	if err != nil || v != 8 {
		t.Fatalf("add = %v, %v; want 8, nil", v, err)
	}
	if _, err := repro.Value[string](res, "add"); err == nil {
		t.Fatal("Value with wrong type must error")
	}
	if _, err := repro.Value[int](res, "nope"); err == nil {
		t.Fatal("Value of unknown task must error")
	}
}

// TestGraphErrorPropagation: a failing task skips its transitive
// dependents; with CollectAll, independent branches still run and the
// dependents' errors wrap the dependency's.
func TestGraphErrorPropagation(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4), repro.WithErrorPolicy(repro.CollectAll))
	defer rt.Close()

	boom := errors.New("boom")
	branchRan := false
	depRan := false
	g := repro.NewGraph().
		Add("bad", nil, func(c *repro.Ctx, _ map[string]any) (any, error) {
			return nil, boom
		}).
		Add("branch", nil, func(c *repro.Ctx, _ map[string]any) (any, error) {
			branchRan = true
			return "ok", nil
		}).
		Add("dep", []string{"bad"}, func(c *repro.Ctx, _ map[string]any) (any, error) {
			depRan = true
			return nil, nil
		}).
		Add("dep2", []string{"dep", "branch"}, func(c *repro.Ctx, _ map[string]any) (any, error) {
			return nil, nil
		})
	res, err := g.Run(context.Background(), rt)
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
	if !branchRan {
		t.Fatal("independent branch did not run under CollectAll")
	}
	if depRan {
		t.Fatal("dependent of failed task ran")
	}
	for _, name := range []string{"dep", "dep2"} {
		if !errors.Is(res[name].Err, boom) {
			t.Fatalf("%s error = %v, does not wrap cause", name, res[name].Err)
		}
	}
	if res["branch"].Err != nil || res["branch"].Value != "ok" {
		t.Fatalf("branch = %+v, want ok", res["branch"])
	}
}

// TestGraphFailFastDrain: under the default policy a failure drains
// unstarted graph tasks; every result carries an error explaining why.
func TestGraphFailFastDrain(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()

	boom := errors.New("boom")
	g := repro.NewGraph().
		Add("bad", nil, func(c *repro.Ctx, _ map[string]any) (any, error) {
			return nil, boom
		}).
		Add("dep", []string{"bad"}, func(c *repro.Ctx, _ map[string]any) (any, error) {
			return nil, nil
		})
	res, err := g.Run(context.Background(), rt)
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
	if !errors.Is(res["dep"].Err, boom) {
		t.Fatalf("dep error = %v, does not wrap cause", res["dep"].Err)
	}
	if rt.LiveTasks() != 0 {
		t.Fatalf("LiveTasks = %d, want 0", rt.LiveTasks())
	}
}

// TestGraphPanicContainment: a panicking GraphFunc is contained as a
// *PanicError and propagates like any failure.
func TestGraphPanicContainment(t *testing.T) {
	rt := repro.New(repro.WithWorkers(2))
	defer rt.Close()

	g := repro.NewGraph().
		Add("boom", nil, func(c *repro.Ctx, _ map[string]any) (any, error) {
			panic("graph-kaboom")
		}).
		Add("dep", []string{"boom"}, func(c *repro.Ctx, _ map[string]any) (any, error) {
			return nil, nil
		})
	res, err := g.Run(context.Background(), rt)
	var pe *repro.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run error = %v, want *PanicError", err)
	}
	if !errors.As(res["dep"].Err, &pe) {
		t.Fatalf("dep error = %v, want to wrap *PanicError", res["dep"].Err)
	}
}

// TestGraphValidation covers the construction failure modes.
func TestGraphValidation(t *testing.T) {
	rt := repro.New(repro.WithWorkers(2))
	defer rt.Close()
	ctx := context.Background()
	nop := func(c *repro.Ctx, _ map[string]any) (any, error) { return nil, nil }

	if _, err := repro.NewGraph().Add("a", nil, nop).Add("a", nil, nop).Run(ctx, rt); err == nil {
		t.Fatal("duplicate task name must error")
	}
	if _, err := repro.NewGraph().Add("a", []string{"ghost"}, nop).Run(ctx, rt); err == nil {
		t.Fatal("unknown dependency must error")
	}
	if _, err := repro.NewGraph().Add("a", []string{"a"}, nop).Run(ctx, rt); err == nil {
		t.Fatal("self dependency must error")
	}
	g := repro.NewGraph().
		Add("a", []string{"c"}, nop).
		Add("b", []string{"a"}, nop).
		Add("c", []string{"b"}, nop)
	if _, err := g.Run(ctx, rt); err == nil {
		t.Fatal("cycle must error")
	}
}

// TestGraphCancellation: cancelling the context drains the whole graph.
func TestGraphCancellation(t *testing.T) {
	rt := repro.New(repro.WithWorkers(2))
	defer rt.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	g := repro.NewGraph().
		Add("a", nil, func(c *repro.Ctx, _ map[string]any) (any, error) {
			ran = true
			return nil, nil
		})
	res, err := g.Run(ctx, rt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("graph task ran under a cancelled context")
	}
	if !errors.Is(res["a"].Err, repro.ErrTaskSkipped) {
		t.Fatalf("a error = %v, want ErrTaskSkipped", res["a"].Err)
	}
}

// TestGraphRunConcurrentFirstUse runs a fresh graph from four
// goroutines at once: the first Runs race to compile, and each must see
// a whole template (the cache is one atomic pointer; the last store
// wins).
func TestGraphRunConcurrentFirstUse(t *testing.T) {
	rt := repro.New(repro.WithWorkers(2))
	defer rt.Close()
	for round := 0; round < 20; round++ {
		g := repro.NewGraph().
			Add("a", nil, func(*repro.Ctx, map[string]any) (any, error) { return 20, nil }).
			Add("b", []string{"a"}, func(_ *repro.Ctx, deps map[string]any) (any, error) {
				return deps["a"].(int) + 1, nil
			})
		start := make(chan struct{})
		errs := make(chan error, 4)
		for i := 0; i < 4; i++ {
			go func() {
				<-start
				res, err := g.Run(context.Background(), rt)
				if err == nil {
					if v, verr := repro.Value[int](res, "b"); verr != nil || v != 21 {
						err = fmt.Errorf("b = %v, %v; want 21, nil", v, verr)
					}
				}
				errs <- err
			}()
		}
		close(start)
		for i := 0; i < 4; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
}
