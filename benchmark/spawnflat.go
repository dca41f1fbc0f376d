package main

import (
	"fmt"

	"repro"
)

// spawn_flat: one root task spawns access-free tasks, each a chain of
// 128 dependent floating-point operations, with a Taskwait every
// spawnBatch tasks. It is the paper's single-creator fine-grain
// regime: task allocation, the ready queue and completion do all the
// work, the dependency system none. The latency sample is one batch,
// first Spawn to Taskwait return.
const (
	spawnBatch   = 1024
	spawnFPOps   = 128
	spawnInputs  = 1024 // distinct seeded inputs; task i uses input i mod this
	sampleEvery  = 64   // traced passes record one task in this many
	spawnMainOps = 1.7e6
	spawnOneOps  = 2.15e6
)

type spawnFlat struct {
	workers int
	tasks   int // per window
	warm    int

	rt   *repro.Runtime
	in   [spawnInputs]float64
	want [spawnInputs]float64
	out  []float64
	lat  *recorder
}

// fpChain is the task body: spawnFPOps dependent multiply-adds.
func fpChain(x float64) float64 {
	for i := 0; i < spawnFPOps/2; i++ {
		x = x*0.999999 + 0.5
	}
	return x
}

func newSpawnFlat(sz sizing, ph phase) workload {
	w := &spawnFlat{workers: sz.P}
	rate, share := spawnMainOps, mainWindowShare
	if ph != phaseMain {
		w.workers, rate, share = 1, spawnOneOps, oneWindowShare
	}
	w.tasks = sz.opsFor(rate, share, spawnBatch)
	w.warm = sz.opsFor(rate, warmupShare, spawnBatch)
	if sz.smoke {
		w.tasks, w.warm = 8*spawnBatch, spawnBatch
	}
	r := newRNG(sz.seed, 10)
	for i := range w.in {
		w.in[i] = 1 + 99*r.float()
		w.want[i] = fpChain(w.in[i])
	}
	return w
}

func (w *spawnFlat) setup() error {
	w.rt = newRuntime(w.workers)
	w.out = make([]float64, w.tasks)
	w.lat = newRecorder(1, w.tasks/spawnBatch)
	_, err := w.run(w.warm)
	return err
}

func (w *spawnFlat) close() { w.rt.Close() }

func (w *spawnFlat) window() (win, error) { return w.run(w.tasks) }

// run spawns n tasks untraced, timing each batch, and verifies every
// task's output cell.
func (w *spawnFlat) run(n int) (win, error) {
	clear(w.out)
	w.lat.reset()
	out, in, lat := w.out, &w.in, w.lat
	var t timed
	t.start()
	err := w.rt.Run(func(c *repro.Ctx) {
		for b := 0; b < n; b += spawnBatch {
			t0 := now()
			for i := b; i < b+spawnBatch; i++ {
				c.Spawn(func(*repro.Ctx) { out[i] = fpChain(in[i%spawnInputs]) })
			}
			c.Taskwait()
			lat.add(0, now()-t0)
		}
	})
	t.stop()
	if err == nil {
		err = w.verify(n)
	}
	return win{ops: n, timed: t, lat: lat, workers: w.workers}, err
}

// verify demands that every one of the first n tasks wrote exactly its
// chain's value: a dropped task leaves a zero, a task run with the
// wrong closure a foreign value.
func (w *spawnFlat) verify(n int) error {
	for i := 0; i < n; i++ {
		if w.out[i] != w.want[i%spawnInputs] {
			return fmt.Errorf("spawn_flat: task %d wrote %v, want %v", i, w.out[i], w.want[i%spawnInputs])
		}
	}
	return nil
}

// windowTraced is window with spans on one task in sampleEvery and on
// every Taskwait. A sampled task's root span runs from Spawn entry to
// body end; its children are the Spawn call and the body, so the
// root's self time is the ready wait between them.
func (w *spawnFlat) windowTraced(tr *tracer) (win, error) {
	n := w.tasks
	clear(w.out)
	w.lat.reset()
	out, in, lat := w.out, &w.in, w.lat
	var t timed
	t.start()
	err := w.rt.Run(func(c *repro.Ctx) {
		g := c.Worker()
		for b := 0; b < n; b += spawnBatch {
			t0 := now()
			for i := b; i < b+spawnBatch; i++ {
				if i%sampleEvery != 0 {
					c.Spawn(func(*repro.Ctx) { out[i] = fpChain(in[i%spawnInputs]) })
					continue
				}
				s0 := now()
				c.Spawn(func(cc *repro.Ctx) {
					b0 := now()
					out[i] = fpChain(in[i%spawnInputs])
					b1 := now()
					tr.add(cc.Worker(), spanBody, int64(i), b0, b1)
					tr.addRoot(cc.Worker(), spanTask, int64(i), s0, b1)
				})
				tr.add(g, spanSpawnCall, int64(i), s0, now())
			}
			w0 := now()
			c.Taskwait()
			w1 := now()
			tr.addRoot(g, spanTaskwait, -int64(b/spawnBatch)-1, w0, w1)
			lat.add(0, w1-t0)
		}
	})
	t.stop()
	if err == nil {
		err = w.verify(n)
	}
	return win{ops: n, timed: t, lat: lat, workers: w.workers}, err
}

// spawnFlatIdeal is the rate P cores reach running the same bodies
// with no task around them: the denominator of fine_grain_efficiency.
func spawnFlatIdeal(sz sizing) (float64, error) {
	w := newSpawnFlat(sz, phaseMain).(*spawnFlat)
	n := 1 << 21
	if sz.smoke {
		n = 1 << 14
	}
	t0 := now()
	for i := 0; i < n; i++ {
		if fpChain(w.in[i%spawnInputs]) != w.want[i%spawnInputs] {
			return 0, fmt.Errorf("spawn_flat: serial body %d disagrees with itself", i)
		}
	}
	return float64(sz.P) * float64(n) / (float64(now()-t0) / 1e9), nil
}
