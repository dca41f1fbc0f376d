package main

import (
	"fmt"
	"runtime"
	"time"

	"repro"
)

// echo_paced: one client keeps echoWindow requests in flight, each a
// frontend→backend→reply chain whose backend parks on Ctx.AfterFunc
// for echoBackend and holds no worker meanwhile. Little's law bounds
// throughput by echoWindow/echoBackend whatever the runtime does, so
// this is the low-load use of the same scheduler: what can move is
// the CPU an operation costs (the spin→park ladder) and the latency
// above the backend time (timer wheel, park and wake). The latency
// sample is a request, issue to the end of its reply body. Exact
// per-key totals and per-request cells verify it.
//
// The client polls its oldest request and yields between polls, on a
// core of its own (max(1, P-1) workers), as qos_mix's generator does.
// A client that sleeps in Future.Wait leaves the process idle between
// timer ticks, and how late an idle process is woken depends on what
// the host ran before: the same binary then settles, for a whole run,
// at either 2.3 k req/s and 6 ms or 9.5 k req/s and 1.1 ms.
const (
	echoWindow  = 16
	echoBackend = time.Millisecond
	echoKeys    = 1024
	echoMainOps = 8.0e3 // requests per second
)

type echoPaced struct {
	workers        int
	requests, warm int
	seed           int64

	rt          *repro.Runtime
	keys        []float64
	stage, resp []float64
	lat         *recorder
}

func newEchoPaced(sz sizing, ph phase) workload {
	w := &echoPaced{workers: max(1, sz.P-1), seed: sz.seed}
	share := mainWindowShare
	if ph != phaseMain {
		w.workers, share = 1, oneWindowShare
	}
	w.requests = sz.opsFor(echoMainOps, share, echoWindow)
	w.warm = sz.opsFor(echoMainOps, warmupShare, echoWindow)
	if sz.smoke {
		w.requests, w.warm = 40*echoWindow, 4*echoWindow
	}
	return w
}

func (w *echoPaced) key(r int) int        { return int(mix(w.seed, 50, r) % echoKeys) }
func echoDelta(r int) float64             { return float64(1 + (r*7+3)%11) }
func (w *echoPaced) begin()               { w.lat.reset(); clear(w.stage); clear(w.resp) }
func (w *echoPaced) close()               { w.rt.Close() }
func (w *echoPaced) window() (win, error) { return w.run(w.requests) }

func (w *echoPaced) setup() error {
	w.rt = newRuntime(w.workers)
	w.keys = make([]float64, echoKeys)
	w.stage = make([]float64, w.requests)
	w.resp = make([]float64, w.requests)
	w.lat = newRecorder(w.rt.Slots(), w.requests)
	_, err := w.run(w.warm)
	return err
}

// echoChain is one submitted request.
type echoChain struct {
	front, back, reply future
	// traced passes only
	id, s0 int64
}

func (c *echoChain) wait(errp *error) {
	if c.reply == nil {
		return
	}
	// Poll, do not sleep: see the package comment.
	for done := false; !done; {
		select {
		case <-c.reply.Done():
			done = true
		default:
			runtime.Gosched()
		}
	}
	for _, f := range [...]future{c.reply, c.back, c.front} {
		if _, err := f.Wait(nil); err != nil && *errp == nil {
			*errp = err
		}
	}
	c.reply = nil
}

// run issues n requests untraced through the window.
func (w *echoPaced) run(n int) (win, error) {
	w.begin()
	for k := range w.keys {
		w.keys[k] = keyInit(k)
	}
	var inflight [echoWindow]echoChain
	var err error
	var t timed
	t.start()
	for r := 0; r < n; r++ {
		c := &inflight[r%echoWindow]
		c.wait(&err)
		stage, resp, key, delta := &w.stage[r], &w.resp[r], &w.keys[w.key(r)], echoDelta(r)
		t0 := now()
		c.front = repro.Submit(w.rt, func(*repro.Ctx) (struct{}, error) {
			*stage = delta
			return struct{}{}, nil
		}, repro.Out(stage))
		c.back = repro.Submit(w.rt, func(c *repro.Ctx) (struct{}, error) {
			v := *stage
			// The response "arrives" on the wheel goroutine; the event
			// completes only after the write, which orders it before the
			// reply task.
			c.AfterFunc(echoBackend, func() { *resp = v * 2 })
			return struct{}{}, nil
		}, repro.In(stage), repro.Out(resp))
		c.reply = repro.Submit(w.rt, func(c *repro.Ctx) (struct{}, error) {
			*key += *resp
			w.lat.add(c.Worker(), now()-t0)
			return struct{}{}, nil
		}, repro.In(resp), repro.InOut(key))
	}
	for i := range inflight {
		inflight[i].wait(&err)
	}
	t.stop()
	if err == nil {
		err = w.verify(n)
	}
	return win{ops: n, timed: t, lat: w.lat, workers: w.workers}, err
}

// windowTraced is window with spans on every request: a root from the
// first Submit to the Future.Wait return, and children around each
// Submit call, each body and the Wait. The root's self time is
// dependency wait, queue wait and the backend's parked millisecond.
func (w *echoPaced) windowTraced(tr *tracer) (win, error) {
	n := w.requests
	w.begin()
	for k := range w.keys {
		w.keys[k] = keyInit(k)
	}
	me := w.rt.Slots() // the client's recorder
	var inflight [echoWindow]echoChain
	var err error
	collect := func(c *echoChain) {
		if c.reply == nil {
			return
		}
		w0 := now()
		c.wait(&err)
		w1 := now()
		tr.add(me, spanWait, c.id, w0, w1)
		tr.addRoot(me, spanRequest, c.id, c.s0, w1)
	}
	var t timed
	t.start()
	for r := 0; r < n; r++ {
		c := &inflight[r%echoWindow]
		collect(c)
		stage, resp, key, delta := &w.stage[r], &w.resp[r], &w.keys[w.key(r)], echoDelta(r)
		id, t0 := int64(r), now()
		c.front = repro.Submit(w.rt, func(c *repro.Ctx) (struct{}, error) {
			b0 := now()
			*stage = delta
			tr.add(c.Worker(), spanBody, id, b0, now())
			return struct{}{}, nil
		}, repro.Out(stage))
		t1 := now()
		c.back = repro.Submit(w.rt, func(c *repro.Ctx) (struct{}, error) {
			b0 := now()
			v := *stage
			c.AfterFunc(echoBackend, func() { *resp = v * 2 })
			tr.add(c.Worker(), spanBody, id, b0, now())
			return struct{}{}, nil
		}, repro.In(stage), repro.Out(resp))
		t2 := now()
		c.reply = repro.Submit(w.rt, func(c *repro.Ctx) (struct{}, error) {
			b0 := now()
			*key += *resp
			b1 := now()
			w.lat.add(c.Worker(), b1-t0)
			tr.add(c.Worker(), spanBody, id, b0, b1)
			return struct{}{}, nil
		}, repro.In(resp), repro.InOut(key))
		t3 := now()
		tr.add(me, spanSubmitCall, id, t0, t1)
		tr.add(me, spanSubmitCall, id, t1, t2)
		tr.add(me, spanSubmitCall, id, t2, t3)
		c.id, c.s0 = id, t0
	}
	for i := range inflight {
		collect(&inflight[i])
	}
	t.stop()
	if err == nil {
		err = w.verify(n)
	}
	return win{ops: n, timed: t, lat: w.lat, workers: w.workers}, err
}

// verify demands exact staging and response cells and exact key
// totals: a reply that ran before its backend's timer wrote the
// response, or a lost key update, shows here.
func (w *echoPaced) verify(n int) error {
	want := make([]float64, echoKeys)
	for k := range want {
		want[k] = keyInit(k)
	}
	for r := 0; r < n; r++ {
		d := echoDelta(r)
		if w.stage[r] != d || w.resp[r] != 2*d {
			return fmt.Errorf("echo_paced: request %d staged %v answered %v, want %v and %v", r, w.stage[r], w.resp[r], d, 2*d)
		}
		want[w.key(r)] += 2 * d
	}
	for k := range want {
		if w.keys[k] != want[k] {
			return fmt.Errorf("echo_paced: key %d = %v, want %v", k, w.keys[k], want[k])
		}
	}
	return nil
}

// echoPacedIdeal is Little's law with nothing but the backend time in
// the loop: the window over the backend latency.
func echoPacedIdeal(sizing) (float64, error) {
	return echoWindow / echoBackend.Seconds(), nil
}
