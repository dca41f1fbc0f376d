package repro_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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

// TestCompiledCellsExactlyOnce: more concurrent Do callers than there
// are inline-serving slots drive a wide fan-out template, so requests
// are served inline — their siblings waiting in the serving slot's
// hand-off cells, taken by the submitter or stolen by a worker or the
// other slot — and dispatched, where the siblings go through the
// scheduler. Every node of every request must run exactly once, and
// the sink must see every sibling's value.
func TestCompiledCellsExactlyOnce(t *testing.T) {
	const (
		clients = 6
		width   = 8
	)
	requests := 300
	if testing.Short() {
		requests = 100
	}
	rt := repro.New(repro.WithWorkers(2))
	nodes := width + 2
	runs := make([]atomic.Int32, clients*requests*nodes)
	var tickets atomic.Int64
	var inline, dispatched atomic.Int64
	servedFrom := rt.Slots() - 2
	record := func(ticket int64, node int) {
		runs[int(ticket)*nodes+node].Add(1)
	}
	g := repro.NewGraph().Add("src", nil, func(c *repro.Ctx, _ map[string]any) (any, error) {
		if c.Worker() >= servedFrom {
			inline.Add(1)
		} else {
			dispatched.Add(1)
		}
		tk := tickets.Add(1) - 1
		record(tk, 0)
		return tk, nil
	})
	sinkDeps := make([]string, width)
	for i := range width {
		name := fmt.Sprintf("w%d", i)
		sinkDeps[i] = name
		g.Add(name, []string{"src"}, func(_ *repro.Ctx, d map[string]any) (any, error) {
			tk := d["src"].(int64)
			record(tk, 1+i)
			return tk*int64(width) + int64(i), nil
		})
	}
	g.Add("sink", sinkDeps, func(_ *repro.Ctx, d map[string]any) (any, error) {
		tk := int64(-1)
		for i, name := range sinkDeps {
			v := d[name].(int64)
			if i == 0 {
				tk = v / int64(width)
			}
			if v != tk*int64(width)+int64(i) {
				return nil, fmt.Errorf("sibling %s of ticket %d delivered %d", name, tk, v)
			}
		}
		record(tk, nodes-1)
		return tk, nil
	})
	cg, err := g.Compile(rt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range requests {
				e, err := cg.Do(context.Background())
				if err != nil {
					errs <- err
					return
				}
				e.Release()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		// No Close: it would wait for the lost sibling too.
		t.Fatal("requests never completed: a fan-out sibling was lost")
	}
	rt.Close()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range runs {
		if n := runs[i].Load(); n != 1 {
			t.Fatalf("node %d of ticket %d ran %d times", i%nodes, i/nodes, n)
		}
	}
	t.Logf("%d requests served inline, %d dispatched", inline.Load(), dispatched.Load())
}

// TestCompiledOfferedSiblingDrains: a request stopped — by a FailFast
// failure in the kept node, a context cancel or a DoTimeout expiry —
// while its fan-out sibling waits offered in the serving slot's cells
// drains that sibling: its body never runs and it reports the skip
// with the right cause, whether the submitter takes it back or a worker
// steals it, and the frame serves a clean request next. The one worker
// is held by a blocking task while the scope stops, so only the
// submitter can take the offer; in the stolen rounds the kept node then
// frees the worker and waits until it has stolen and drained the
// sibling. Either way the drained sibling is a task, and the clean
// request's sibling is taken back and run as a call.
func TestCompiledOfferedSiblingDrains(t *testing.T) {
	const rounds = 3
	boom := errors.New("boom")
	for _, tc := range []struct {
		name  string
		stop  func(c *repro.Ctx, cancel context.CancelFunc) error
		d     time.Duration
		cause error
	}{
		{"failfast", func(c *repro.Ctx, _ context.CancelFunc) error { c.Fail(boom); return boom }, 0, boom},
		{"cancel", func(c *repro.Ctx, cancel context.CancelFunc) error {
			cancel()
			return waitAborted(c)
		}, 0, context.Canceled},
		{"timeout", func(c *repro.Ctx, _ context.CancelFunc) error { return waitAborted(c) },
			5 * time.Millisecond, context.DeadlineExceeded},
	} {
		for _, stolen := range []bool{false, true} {
			name := tc.name + "/taken-back"
			if stolen {
				name = tc.name + "/stolen"
			}
			t.Run(name, func(t *testing.T) {
				rt := tracedRuntime(repro.WithWorkers(1))
				// block holds the one worker in a task until free runs.
				var free func()
				var blocker *repro.Future[int]
				block := func() {
					started, release := make(chan struct{}), make(chan struct{})
					blocker = repro.Submit(rt, func(*repro.Ctx) (int, error) {
						close(started)
						<-release
						return 0, nil
					})
					<-started
					free = sync.OnceFunc(func() { close(release) })
				}
				unblock := func() {
					free()
					if _, err := blocker.Wait(nil); err != nil {
						t.Fatal(err)
					}
				}
				var armed atomic.Bool
				var cancel context.CancelFunc
				var sibRan atomic.Int32
				cg, err := repro.NewGraph().
					Add("src", nil, func(*repro.Ctx, map[string]any) (any, error) { return 1, nil }).
					Add("stop", []string{"src"}, func(c *repro.Ctx, _ map[string]any) (any, error) {
						if !armed.Load() {
							return 2, nil
						}
						err := tc.stop(c, cancel)
						if stolen {
							// The holder is in this body, not helping, so
							// only a thief can empty its cells.
							free()
							for t0 := time.Now(); rt.Stats().Pending != 0; runtime.Gosched() {
								if time.Since(t0) > 10*time.Second {
									return nil, errors.New("the offered sibling was never stolen")
								}
							}
						}
						return 2, err
					}).
					Add("sib", []string{"src"}, func(*repro.Ctx, map[string]any) (any, error) {
						sibRan.Add(1)
						return 3, nil
					}).
					Compile(rt)
				if err != nil {
					t.Fatal(err)
				}
				for round := 0; round < rounds; round++ {
					var ctx context.Context
					ctx, cancel = context.WithCancel(context.Background())
					block()
					armed.Store(true)
					e, err := cg.DoTimeout(ctx, tc.d)
					if !errors.Is(err, tc.cause) {
						t.Fatalf("aggregate = %v, want %v", err, tc.cause)
					}
					if v, err := e.Value("sib"); !errors.Is(err, repro.ErrTaskSkipped) || !errors.Is(err, tc.cause) {
						t.Fatalf("sibling = %v, %v, want a skip caused by %v", v, err, tc.cause)
					}
					if n := sibRan.Load(); n != int32(round) {
						t.Fatalf("the sibling ran in a stopped request (%d runs in %d clean requests)", n, round)
					}
					e.Release()
					cancel()
					unblock()

					// The same frame serves a clean request next.
					block()
					armed.Store(false)
					e, err = cg.Do(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if v, err := e.Value("sib"); err != nil || v.(int) != 3 {
						t.Fatalf("clean request after a stopped one: sibling = %v, %v", v, err)
					}
					e.Release()
					unblock()
				}
				n := closedTrace(t, rt)
				sib, _ := cg.NodeIndex("sib")
				steals, tasks := 0, 5*rounds // two blockers, two roots, the drained sibling
				if stolen {
					steals = rounds
				}
				if n.steals != steals || n.tasks != tasks || n.offers[sib] != rounds || len(n.offers) != 1 {
					t.Fatalf("%d steals, %d tasks, offers run as calls %v: want %d, %d and the clean requests' %d siblings",
						n.steals, n.tasks, n.offers, steals, tasks, rounds)
				}
			})
		}
	}
}
