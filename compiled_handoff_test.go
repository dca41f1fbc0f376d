package repro_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro"
)

// meet is a two-party rendezvous for node bodies: arrive announces one
// side and waits until the other has arrived too, or fails after a
// timeout, so a template that serialises the two on one thread turns
// into a request error instead of a hung test.
type meet struct{ a, b chan struct{} }

func newMeet() *meet { return &meet{make(chan struct{}), make(chan struct{})} }

var errNoRendezvous = errors.New("the other body never started")

func arrive(mine, other chan struct{}) error {
	close(mine)
	select {
	case <-other:
		return nil
	case <-time.After(10 * time.Second):
		return errNoRendezvous
	}
}

// TestCompiledFanOutSiblingsOffered: a node that readies two successors
// keeps one for its own thread and must offer the other to the workers.
// The two bodies wait for each other, so the request only completes if
// they run on two threads at once.
func TestCompiledFanOutSiblingsOffered(t *testing.T) {
	rt := repro.New(repro.WithWorkers(2))
	defer rt.Close()
	var m *meet
	g := repro.NewGraph().
		Add("src", nil, func(*repro.Ctx, map[string]any) (any, error) { return 1, nil }).
		Add("left", []string{"src"}, func(*repro.Ctx, map[string]any) (any, error) {
			return 2, arrive(m.a, m.b)
		}).
		Add("right", []string{"src"}, func(*repro.Ctx, map[string]any) (any, error) {
			return 3, arrive(m.b, m.a)
		}).
		Add("sink", []string{"left", "right"}, func(_ *repro.Ctx, d map[string]any) (any, error) {
			return d["left"].(int) + d["right"].(int), nil
		})
	cg, err := g.Compile(rt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		m = newMeet()
		e, err := cg.Do(context.Background())
		if err != nil {
			t.Fatalf("request %d: %v: the fan-out was serialised on the serving thread", i, err)
		}
		if v, err := e.Value("sink"); err != nil || v.(int) != 5 {
			t.Fatalf("request %d: sink = %v, %v", i, v, err)
		}
		e.Release()
	}
}

// TestCompiledEventNodeSuccessor: a node body that parks on an external
// event has already released its successor when it returns — continued
// it, or spawned it — since successors are readied from inside the
// body, not by the task's completion. "held" reaches a worker through
// the scheduler (its sibling keeps the serving thread busy until it has
// started), so the thread that parks it is a worker between two
// scheduler polls, which returns to polling with nothing in hand. Both
// submission paths: inline serving and dispatch.
func TestCompiledEventNodeSuccessor(t *testing.T) {
	for _, tc := range []struct {
		name     string
		workers  int
		dispatch bool // both serve slots held: every request dispatches
	}{{"inline", 1, false}, {"dispatch", 2, true}} {
		t.Run(tc.name, func(t *testing.T) {
			rt := repro.New(repro.WithWorkers(tc.workers))
			release := func() {}
			if tc.dispatch {
				release = holdServeSlots(t, rt)
			}
			var m *meet
			g := repro.NewGraph().
				Add("src", nil, func(*repro.Ctx, map[string]any) (any, error) { return 1, nil }).
				Add("busy", []string{"src"}, func(*repro.Ctx, map[string]any) (any, error) {
					return 0, arrive(m.a, m.b)
				}).
				Add("held", []string{"src"}, func(c *repro.Ctx, _ map[string]any) (any, error) {
					c.After(time.Millisecond)
					return 20, arrive(m.b, m.a)
				}).
				Add("after", []string{"held"}, func(_ *repro.Ctx, d map[string]any) (any, error) {
					return d["held"].(int) + 1, nil
				})
			cg, err := g.Compile(rt)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				m = newMeet()
				var e *repro.GraphExec
				var err error
				done := make(chan struct{})
				go func() {
					e, err = cg.Do(context.Background())
					close(done)
				}()
				select {
				case <-done:
				case <-time.After(20 * time.Second):
					// No Close: it would wait for the stranded node too.
					t.Fatalf("request %d never completed: the successor of a parked node was stranded", i)
				}
				if err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				if v, err := e.Value("after"); err != nil || v.(int) != 21 {
					t.Fatalf("request %d: after = %v, %v", i, v, err)
				}
				e.Release()
			}
			release()
			rt.Close()
		})
	}
}

// holdServeSlots occupies both inline-serving slots of rt with requests
// whose one node blocks until the returned release runs, so every other
// request meanwhile takes the dispatch path. Each blocker is served
// inline, so its node runs on the blocker's serve slot — an index past
// the workers — which the helper checks before returning.
func holdServeSlots(t *testing.T, rt *repro.Runtime) (release func()) {
	t.Helper()
	unblock := make(chan struct{})
	ranOn := make(chan int, 2)
	cg, err := repro.NewGraph().
		Add("block", nil, func(c *repro.Ctx, _ map[string]any) (any, error) {
			ranOn <- c.Worker()
			<-unblock
			return nil, nil
		}).
		Compile(rt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := cg.Do(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			e.Release()
		}()
	}
	release = func() { close(unblock); wg.Wait() }
	for i := 0; i < 2; i++ {
		if w := <-ranOn; w < rt.Config().Workers {
			release()
			t.Fatalf("a blocking request ran on worker %d, not on a serve slot", w)
		}
	}
	return release
}
