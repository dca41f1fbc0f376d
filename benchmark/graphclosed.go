package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro"
)

// graph_closed: P closed-loop clients each call CompiledGraph.Do on a
// seven-node fan-in template, one request after the other. The source
// node draws a ticket from a shared counter and every other node is a
// fixed integer transform of its dependencies, so the sink is an exact
// function of the ticket, checked on every request; each ticket of the
// window must be delivered exactly once. It is the serving fast path:
// pooled frames, the request latch, inline-serve slots and successor
// bypass, with the scheduler queues mostly out of the picture.
const (
	graphMainOps = 1.09e5 // requests per second, P workers and P clients
	graphOneOps  = 1.22e5
)

// graphNodes lists the template in topological order. Each body
// computes from its dependencies (see graphBody); mul and add give the
// closed form of its value, mul*ticket + add, which the sink check
// uses and from which a traced body recovers the ticket it belongs to.
var graphNodes = []struct {
	name     string
	deps     []string
	mul, add int64
}{
	{"ticket", nil, 1, 0},
	{"auth", []string{"ticket"}, 3, 1},
	{"inventory", []string{"ticket"}, 5, 2},
	{"promo", []string{"ticket"}, 11, 7},
	{"price", []string{"auth", "inventory"}, 13, 5},
	{"quote", []string{"price", "promo"}, 15, 3},
	{"render", []string{"quote", "ticket"}, 106, 21},
}

// graphSink is the exact sink of a request: the closed form of render.
func graphSink(ticket int64) int64 { return 106*ticket + 21 }

// graphBody is node name's transform.
func graphBody(name string, seq *atomic.Int64) repro.GraphFunc {
	switch name {
	case "ticket":
		return func(*repro.Ctx, map[string]any) (any, error) { return seq.Add(1), nil }
	case "auth":
		return func(_ *repro.Ctx, d map[string]any) (any, error) { return d["ticket"].(int64)*3 + 1, nil }
	case "inventory":
		return func(_ *repro.Ctx, d map[string]any) (any, error) { return d["ticket"].(int64)*5 + 2, nil }
	case "promo":
		return func(_ *repro.Ctx, d map[string]any) (any, error) { return d["ticket"].(int64)*11 + 7, nil }
	case "price":
		return func(_ *repro.Ctx, d map[string]any) (any, error) {
			return d["auth"].(int64) + d["inventory"].(int64)*2, nil
		}
	case "quote":
		return func(_ *repro.Ctx, d map[string]any) (any, error) {
			return d["price"].(int64)*2 - d["promo"].(int64), nil
		}
	}
	return func(_ *repro.Ctx, d map[string]any) (any, error) {
		return d["quote"].(int64)*7 + d["ticket"].(int64), nil
	}
}

type graphClosed struct {
	workers, clients int
	requests, warm   int // per window, all clients together

	rt         *repro.Runtime
	cg         *repro.CompiledGraph
	tick, sink int
	base       int64 // first ticket of a window minus one, from the seed
	seq        atomic.Int64
	rec        []int64 // rec[t-base-1] is the sink delivered for ticket t
	lat        *recorder
}

func newGraphClosed(sz sizing, ph phase) workload {
	w := &graphClosed{workers: sz.P, clients: sz.P}
	rate, share := graphMainOps, mainWindowShare
	if ph != phaseMain {
		w.workers, rate, share = 1, graphOneOps, oneWindowShare
	}
	w.requests = sz.opsFor(rate, share, w.clients)
	w.warm = sz.opsFor(rate, warmupShare, w.clients)
	if sz.smoke {
		w.requests, w.warm = 2000*w.clients, 200*w.clients
	}
	w.base = int64(newRNG(sz.seed, 30).intn(1 << 30))
	return w
}

func (w *graphClosed) setup() error {
	w.rt = newRuntime(w.workers)
	g := repro.NewGraph()
	for _, n := range graphNodes {
		g.Add(n.name, n.deps, graphBody(n.name, &w.seq))
	}
	cg, err := g.Compile(w.rt)
	if err != nil {
		return err
	}
	w.cg = cg
	w.tick, _ = cg.NodeIndex("ticket")
	w.sink, _ = cg.NodeIndex("render")
	w.rec = make([]int64, w.requests)
	w.lat = newRecorder(w.clients, w.requests/w.clients)
	_, err = w.run(w.warm)
	return err
}

func (w *graphClosed) close() { w.rt.Close() }

func (w *graphClosed) window() (win, error) { return w.run(w.requests) }

// deliver reads a finished request's ticket and sink and files them.
func (w *graphClosed) deliver(ex *repro.GraphExec, n int) error {
	tv, err := ex.ValueAt(w.tick)
	if err != nil {
		return err
	}
	sv, err := ex.ValueAt(w.sink)
	if err != nil {
		return err
	}
	return w.file(tv.(int64), sv.(int64), n)
}

// file checks the sink s delivered for ticket t, one of a window's n,
// and records the delivery: the ticket must belong to the window, the
// sink must be exact, and no ticket may be delivered twice.
func (w *graphClosed) file(t, s int64, n int) error {
	if t <= w.base || t > w.base+int64(n) {
		return fmt.Errorf("graph_closed: ticket %d outside %d..%d", t, w.base+1, w.base+int64(n))
	}
	if s != graphSink(t) {
		return fmt.Errorf("graph_closed: ticket %d sink %d, want %d", t, s, graphSink(t))
	}
	if !atomic.CompareAndSwapInt64(&w.rec[t-w.base-1], 0, s) {
		return fmt.Errorf("graph_closed: ticket %d delivered twice", t)
	}
	return nil
}

// verify demands that every ticket of the window was delivered.
func (w *graphClosed) verify(n int) error {
	for i := 0; i < n; i++ {
		if w.rec[i] == 0 {
			return fmt.Errorf("graph_closed: ticket %d never delivered", w.base+int64(i)+1)
		}
	}
	return nil
}

// run serves n requests untraced, n/clients per client.
func (w *graphClosed) run(n int) (win, error) {
	clear(w.rec)
	w.seq.Store(w.base)
	w.lat.reset()
	ctx := context.Background()
	errs := make([]error, w.clients)
	var wg sync.WaitGroup
	var t timed
	t.start()
	for g := 0; g < w.clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < n/w.clients; r++ {
				t0 := now()
				ex, err := w.cg.Do(ctx)
				t1 := now()
				if err == nil {
					err = w.deliver(ex, n)
				}
				ex.Release()
				if err != nil && errs[g] == nil {
					errs[g] = err
				}
				w.lat.add(g, t1-t0)
			}
		}()
	}
	wg.Wait()
	t.stop()
	return win{ops: n, timed: t, lat: w.lat, workers: w.workers}, firstErr(errs, w.verify(n))
}

// windowTraced is window with a root span around every Do and a child
// span around every node body. Do gives a body no request handle, so
// the client labels its root with the ticket it reads back and the
// bodies label themselves with the ticket they computed from.
func (w *graphClosed) windowTraced(tr *tracer) (win, error) {
	n := w.requests
	clear(w.rec)
	w.seq.Store(w.base)
	w.lat.reset()
	g := repro.NewGraph()
	for _, nd := range graphNodes {
		body := graphBody(nd.name, &w.seq)
		g.Add(nd.name, nd.deps, func(c *repro.Ctx, d map[string]any) (any, error) {
			b0 := now()
			v, err := body(c, d)
			tr.add(c.Worker(), nd.name, (v.(int64)-nd.add)/nd.mul, b0, now())
			return v, err
		})
	}
	cg, err := g.Compile(w.rt)
	if err != nil {
		return win{}, err
	}
	slots := w.rt.Slots()
	ctx := context.Background()
	errs := make([]error, w.clients)
	var wg sync.WaitGroup
	var t timed
	t.start()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < n/w.clients; r++ {
				t0 := now()
				ex, err := cg.Do(ctx)
				t1 := now()
				if err == nil {
					tv, _ := ex.ValueAt(w.tick)
					tr.addRoot(slots+c, spanDo, tv.(int64), t0, t1)
					err = w.deliver(ex, n)
				}
				ex.Release()
				if err != nil && errs[c] == nil {
					errs[c] = err
				}
				w.lat.add(c, t1-t0)
			}
		}()
	}
	wg.Wait()
	t.stop()
	return win{ops: n, timed: t, lat: w.lat, workers: w.workers}, firstErr(errs, w.verify(n))
}

// graphClosedIdeal is the rate P cores reach evaluating the seven
// transforms directly, with no template, frame or task around them.
func graphClosedIdeal(sz sizing) (float64, error) {
	var seq atomic.Int64
	bodies := make([]repro.GraphFunc, len(graphNodes))
	for i, n := range graphNodes {
		bodies[i] = graphBody(n.name, &seq)
	}
	n := 1 << 19
	if sz.smoke {
		n = 1 << 12
	}
	vals := make(map[string]any, len(graphNodes))
	t0 := now()
	for r := 0; r < n; r++ {
		for i, nd := range graphNodes {
			v, _ := bodies[i](nil, vals)
			vals[nd.name] = v
		}
		if t := vals["ticket"].(int64); vals["render"].(int64) != graphSink(t) {
			return 0, fmt.Errorf("graph_closed: serial sink of ticket %d is wrong", t)
		}
	}
	return float64(sz.P) * float64(n) / (float64(now()-t0) / 1e9), nil
}

// firstErr returns the first non-nil error of errs, else last.
func firstErr(errs []error, last error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return last
}
