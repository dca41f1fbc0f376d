package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro"
)

// qos_mix: one batch client floods compute→apply request chains
// through a qosWindow-deep window (closed loop) while an open-loop
// Poisson stream of interactive requests, qosRate per second, issues
// the same chains with the top priority, a qosLimit deadline and
// priority inheritance, all over one shared key table, on an EDF
// runtime with max(1, P-1) workers: one core is left to the generator,
// because with P saturated workers its lateness, not the runtime, set
// the interactive tail. The batch client stops when the interactive
// stream has completed; throughput counts batch requests. The latency
// sample is an interactive request, due time to the end of its apply
// body on the worker. A serial replay verifies the table.
const (
	qosWindow  = 64
	qosKeys    = 32768
	qosRate    = 1000.0
	qosLimit   = 2 * time.Millisecond
	qosSpin    = 2048  // dependent multiply-adds per body
	qosMaxRate = 4.0e5 // batch requests per second the staging cells allow for
)

type qosMix struct {
	workers  int
	inter    int // interactive requests per window
	warm     int
	maxBatch int
	seed     int64

	rt         *repro.Runtime
	due        []int64 // Poisson due times, ns from window start
	keys       []float64
	batchStage []float64
	interStage []float64
	batchDone  int // batch requests issued (and completed) by the last window
	lat, lag   *recorder
}

func newQosMix(sz sizing, ph phase) workload {
	w := &qosMix{workers: max(1, sz.P-1), seed: sz.seed}
	share := mainWindowShare
	if ph != phaseMain {
		w.workers, share = 1, oneWindowShare
	}
	w.inter = sz.opsFor(qosRate, share, 1)
	w.warm = sz.opsFor(qosRate, warmupShare, 1)
	if sz.smoke {
		w.inter, w.warm = 150, 30
	}
	w.due = poissonArrivals(w.inter, qosRate, sz.seed)
	w.maxBatch = int(qosMaxRate * float64(w.due[w.inter-1]) / 1e9)
	return w
}

// Request r's key and small-integer delta, per class. Integer-valued
// float64 sums are exact in any order, so the table has one right
// answer however the requests interleave.
func (w *qosMix) batchKey(r int) int { return int(mix(w.seed, 40, r) % qosKeys) }
func (w *qosMix) interKey(r int) int { return int(mix(w.seed, 41, r) % qosKeys) }
func batchDelta(r int) float64       { return float64(1 + (r*7+3)%11) }
func interDelta(r int) float64       { return float64(1 + (r*5+1)%7) }
func keyInit(k int) float64          { return float64(1 + k%9) }

// mix hashes (seed, stream, i) to 64 well-spread bits.
func mix(seed int64, stream uint64, i int) uint64 {
	r := rng{s: uint64(seed)*0x9E3779B97F4A7C15 + stream<<32 + uint64(i)}
	return r.next()
}

// spin burns n dependent multiply-adds seeded by a positive value and
// returns exactly zero, as Floor(1/(x+2)) of an x >= 1 the compiler
// cannot fold, so a body can add it to an exact integer sum.
func spin(seed float64, n int) float64 {
	x := seed + 2
	for i := 0; i < n; i++ {
		x = x*0.999999 + 1
	}
	return math.Floor(1 / (x + 2))
}

func (w *qosMix) setup() error {
	w.rt = newRuntime(w.workers, repro.WithEDF())
	w.keys = make([]float64, qosKeys)
	w.batchStage = make([]float64, w.maxBatch)
	w.interStage = make([]float64, w.inter)
	w.lat = newRecorder(w.rt.Slots(), w.inter)
	w.lag = newRecorder(1, w.inter)
	_, err := w.run(w.warm)
	return err
}

func (w *qosMix) close() { w.rt.Close() }

func (w *qosMix) window() (win, error) { return w.run(w.inter) }

type future = *repro.Future[struct{}]

// chain is one submitted compute→apply request.
type chain struct {
	compute, apply future
	// traced passes only
	id, s0 int64
}

func (c *chain) wait(errp *error) {
	if c.apply == nil {
		return
	}
	for _, f := range [...]future{c.apply, c.compute} {
		if _, err := f.Wait(nil); err != nil && *errp == nil {
			*errp = err
		}
	}
	c.apply = nil
}

// done reports, without blocking, whether the chain's slot is free:
// never used, or its apply task (and so its compute task) complete.
func (c *chain) done() bool {
	if c.apply == nil {
		return true
	}
	select {
	case <-c.apply.Done():
		return true
	default:
		return false
	}
}

func (w *qosMix) begin() {
	for k := range w.keys {
		w.keys[k] = keyInit(k)
	}
	clear(w.batchStage)
	clear(w.interStage)
	w.lat.reset()
	w.lag.reset()
}

// interSpecs returns the three clauses of an interactive task whose
// request was due at dueAbs on the now() clock.
func interSpecs(dueAbs int64) [3]repro.AccessSpec {
	abs := repro.NowNS() + (dueAbs - now()) + qosLimit.Nanoseconds()
	return [3]repro.AccessSpec{
		repro.WithPriority(repro.MaxPriority), repro.WithDeadlineAt(abs), repro.WithInheritance(),
	}
}

// run issues n interactive requests on the schedule against the batch
// flood, untraced. The calling goroutine is the load generator: batch
// client and interactive stream in one loop that never sleeps (see the
// README's Generator paragraph for why).
func (w *qosMix) run(n int) (win, error) {
	w.begin()
	var berr, ierr error
	var inflight [qosWindow]chain
	issued := make([]chain, n)
	r := 0
	var t timed
	t.start()
	for next := 0; next < n; {
		if due := t.t0 + w.due[next]; now() >= due {
			w.lag.add(0, now()-due)
			stage, key, delta := &w.interStage[next], &w.keys[w.interKey(next)], interDelta(next)
			cl := interSpecs(due)
			issued[next].compute = repro.Submit(w.rt, func(*repro.Ctx) (struct{}, error) {
				*stage = delta + spin(delta, qosSpin)
				return struct{}{}, nil
			}, repro.Out(stage), cl[0], cl[1], cl[2])
			issued[next].apply = repro.Submit(w.rt, func(c *repro.Ctx) (struct{}, error) {
				*key += *stage + spin(*stage, qosSpin)
				w.lat.add(c.Worker(), now()-due)
				return struct{}{}, nil
			}, repro.In(stage), repro.InOut(key), cl[0], cl[1], cl[2])
			next++
			continue
		}
		c := &inflight[r%qosWindow]
		if r == w.maxBatch || !c.done() {
			runtime.Gosched()
			continue
		}
		c.wait(&berr)
		stage, key, delta := &w.batchStage[r], &w.keys[w.batchKey(r)], batchDelta(r)
		c.compute = repro.Submit(w.rt, func(*repro.Ctx) (struct{}, error) {
			*stage = delta + spin(delta, qosSpin)
			return struct{}{}, nil
		}, repro.Out(stage))
		c.apply = repro.Submit(w.rt, func(*repro.Ctx) (struct{}, error) {
			*key += *stage + spin(*stage, qosSpin)
			return struct{}{}, nil
		}, repro.In(stage), repro.InOut(key))
		r++
	}
	for i := range inflight {
		inflight[i].wait(&berr)
	}
	for i := range issued {
		issued[i].wait(&ierr)
	}
	w.batchDone = r
	t.stop()
	return w.result(n, t), firstErr([]error{berr, ierr}, w.verify(n))
}

// result folds the window's samples into its counts: an interactive
// request misses when it completed after the limit or not at all.
func (w *qosMix) result(n int, t timed) win {
	ontime := 0
	for _, b := range w.lat.bufs {
		for _, v := range b {
			if v <= qosLimit.Nanoseconds() {
				ontime++
			}
		}
	}
	lag := w.lag.sorted()
	return win{ops: w.batchDone, timed: t, lat: w.lat, workers: w.workers, extra: extraStats{
		issued: n, missed: n - ontime,
		lagP99us: float64(rankValue(lag, tailPercentile(len(lag)))) / 1e3,
	}}
}

// interBase offsets interactive request ids in a traced pass, where
// every interactive request is recorded but only one batch request in
// sampleEvery.
const interBase = int64(1) << 40

// windowTraced is window with spans: a root from the first Submit of
// a request to its Future.Wait return (batch) or to the end of its
// apply body (interactive, whose futures are only collected at the
// end), and children around each Submit call, each body and the Wait.
func (w *qosMix) windowTraced(tr *tracer) (win, error) {
	n := w.inter
	w.begin()
	me := w.rt.Slots() // the generator's recorder
	var berr, ierr error
	var t timed
	t.start()
	var inflight [qosWindow]chain
	issued := make([]chain, n)
	collect := func(c *chain) {
		if c.s0 == 0 {
			c.wait(&berr)
			return
		}
		w0 := now()
		c.wait(&berr)
		w1 := now()
		tr.add(me, spanWait, c.id, w0, w1)
		tr.addRoot(me, spanRequest, c.id, c.s0, w1)
		c.s0 = 0
	}
	r := 0
	for next := 0; next < n; {
		if due := t.t0 + w.due[next]; now() >= due {
			w.lag.add(0, now()-due)
			stage, key, delta := &w.interStage[next], &w.keys[w.interKey(next)], interDelta(next)
			cl := interSpecs(due)
			id, s0 := interBase+int64(next), now()
			issued[next].compute = repro.Submit(w.rt, func(c *repro.Ctx) (struct{}, error) {
				b0 := now()
				*stage = delta + spin(delta, qosSpin)
				tr.add(c.Worker(), spanBody, id, b0, now())
				return struct{}{}, nil
			}, repro.Out(stage), cl[0], cl[1], cl[2])
			s1 := now()
			issued[next].apply = repro.Submit(w.rt, func(c *repro.Ctx) (struct{}, error) {
				b0 := now()
				*key += *stage + spin(*stage, qosSpin)
				b1 := now()
				w.lat.add(c.Worker(), b1-due)
				tr.add(c.Worker(), spanBody, id, b0, b1)
				tr.addRoot(c.Worker(), spanRequest, id, s0, b1)
				return struct{}{}, nil
			}, repro.In(stage), repro.InOut(key), cl[0], cl[1], cl[2])
			tr.add(me, spanSubmitCall, id, s0, s1)
			tr.add(me, spanSubmitCall, id, s1, now())
			next++
			continue
		}
		c := &inflight[r%qosWindow]
		if r == w.maxBatch || !c.done() {
			runtime.Gosched()
			continue
		}
		collect(c)
		stage, key, delta := &w.batchStage[r], &w.keys[w.batchKey(r)], batchDelta(r)
		if r%sampleEvery != 0 {
			c.compute = repro.Submit(w.rt, func(*repro.Ctx) (struct{}, error) {
				*stage = delta + spin(delta, qosSpin)
				return struct{}{}, nil
			}, repro.Out(stage))
			c.apply = repro.Submit(w.rt, func(*repro.Ctx) (struct{}, error) {
				*key += *stage + spin(*stage, qosSpin)
				return struct{}{}, nil
			}, repro.In(stage), repro.InOut(key))
			r++
			continue
		}
		id, s0 := int64(r), now()
		c.compute = repro.Submit(w.rt, func(c *repro.Ctx) (struct{}, error) {
			b0 := now()
			*stage = delta + spin(delta, qosSpin)
			tr.add(c.Worker(), spanBody, id, b0, now())
			return struct{}{}, nil
		}, repro.Out(stage))
		s1 := now()
		c.apply = repro.Submit(w.rt, func(c *repro.Ctx) (struct{}, error) {
			b0 := now()
			*key += *stage + spin(*stage, qosSpin)
			tr.add(c.Worker(), spanBody, id, b0, now())
			return struct{}{}, nil
		}, repro.In(stage), repro.InOut(key))
		tr.add(me, spanSubmitCall, id, s0, s1)
		tr.add(me, spanSubmitCall, id, s1, now())
		c.id, c.s0 = id, s0
		r++
	}
	for i := range inflight {
		collect(&inflight[i])
	}
	for i := range issued {
		issued[i].wait(&ierr)
	}
	w.batchDone = r
	t.stop()
	return w.result(n, t), firstErr([]error{berr, ierr}, w.verify(n))
}

// verify replays the issued requests serially: every staging cell
// holds its delta and every key its initial value plus exactly the
// deltas aimed at it, so a lost, doubled or unordered update shows.
func (w *qosMix) verify(n int) error {
	want := make([]float64, qosKeys)
	for k := range want {
		want[k] = keyInit(k)
	}
	for r := 0; r < w.batchDone; r++ {
		want[w.batchKey(r)] += batchDelta(r)
		if w.batchStage[r] != batchDelta(r) {
			return fmt.Errorf("qos_mix: batch request %d staged %v, want %v", r, w.batchStage[r], batchDelta(r))
		}
	}
	for r := 0; r < n; r++ {
		want[w.interKey(r)] += interDelta(r)
		if w.interStage[r] != interDelta(r) {
			return fmt.Errorf("qos_mix: interactive request %d staged %v, want %v", r, w.interStage[r], interDelta(r))
		}
	}
	for k := range want {
		if w.keys[k] != want[k] {
			return fmt.Errorf("qos_mix: key %d = %v, want %v", k, w.keys[k], want[k])
		}
	}
	return nil
}

// qosMixIdeal is the rate the workers reach running a batch request's
// two bodies back to back on plain memory.
func qosMixIdeal(sz sizing) (float64, error) {
	n := 1 << 16
	if sz.smoke {
		n = 1 << 10
	}
	var stage, key float64
	t0 := now()
	for r := 0; r < n; r++ {
		stage = batchDelta(r) + spin(batchDelta(r), qosSpin)
		key += stage + spin(stage, qosSpin)
	}
	rate := float64(n) / (float64(now()-t0) / 1e9)
	want := 0.0
	for r := 0; r < n; r++ {
		want += batchDelta(r)
	}
	if key != want {
		return 0, fmt.Errorf("qos_mix: serial bodies summed to %v, want %v", key, want)
	}
	return float64(max(1, sz.P-1)) * rate, nil
}
