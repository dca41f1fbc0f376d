package main

import (
	"fmt"

	"repro"
)

// heat_fine: Gauss-Seidel heat on a heatN x heatN grid in square tiles,
// heatSweeps sweeps per repetition, one task per tile per sweep with
// five accesses (inout on its own tile, in on its four neighbours), so
// registration, release and the wavefront's ready hand-off dominate.
// Every repetition starts from the same seeded grid and must end
// bit-equal to a serial sweep of it. The latency sample is one
// repetition, first Spawn to Taskwait return; an operation is one
// fine-tile task.
const (
	heatN          = 1024
	heatSweeps     = 8
	heatFineTile   = 16
	heatCoarseTile = 256
	heatMainOps    = 5.2e5 // fine tasks per second, P workers
	heatOneOps     = 3.0e5
	heatRefOps     = 1.3e6 // fine-task equivalents per second at coarse tiles
)

type heatFine struct {
	workers, n, tile, nb int
	reps, warmReps       int

	rt     *repro.Runtime
	start  []float64 // the seeded initial grid, boundary included
	want   []float64 // start after heatSweeps serial sweeps
	grid   []float64
	stride int
	lat    *recorder
}

// fineTasksPerRep is what one repetition counts as, whatever the tile:
// the number of fine-tile tasks that do the same cell updates.
func (w *heatFine) fineTasksPerRep() int {
	return heatSweeps * (w.n / heatFineTile) * (w.n / heatFineTile)
}

func newHeatFine(sz sizing, ph phase) workload {
	w := &heatFine{workers: sz.P, n: heatN, tile: heatFineTile}
	rate, share := heatMainOps, mainWindowShare
	switch ph {
	case phaseOne:
		w.workers, rate, share = 1, heatOneOps, oneWindowShare
	case phaseRef:
		w.tile, rate, share = heatCoarseTile, heatRefOps, refWindowShare
	}
	if sz.smoke { // a quarter of the side, the same 4 x 4 coarse tiling
		w.n = heatN / 4
		if ph == phaseRef {
			w.tile = heatCoarseTile / 4
		}
	}
	w.nb, w.stride = w.n/w.tile, w.n+2
	per := w.fineTasksPerRep()
	w.reps = sz.opsFor(rate, share, per) / per
	w.warmReps = sz.opsFor(rate, warmupShare, per) / per
	if sz.smoke {
		w.reps, w.warmReps = 3, 1
	}
	r := newRNG(sz.seed, 20)
	w.start = make([]float64, w.stride*w.stride)
	for i := 1; i <= w.n; i++ {
		for j := 1; j <= w.n; j++ {
			w.start[i*w.stride+j] = 100 * r.float()
		}
	}
	for j := 0; j < w.stride; j++ {
		w.start[j] = 100 // hot top boundary
	}
	return w
}

// sweepTile is the task body: the Gauss-Seidel update of one tile.
func sweepTile(g []float64, stride, tile, bi, bj int) {
	for i := bi*tile + 1; i <= (bi+1)*tile; i++ {
		row := i * stride
		for j := bj*tile + 1; j <= (bj+1)*tile; j++ {
			g[row+j] = 0.25 * (g[row+j-1] + g[row+j+1] + g[row-stride+j] + g[row+stride+j])
		}
	}
}

func (w *heatFine) setup() error {
	w.rt = newRuntime(w.workers)
	w.grid = make([]float64, len(w.start))
	w.want = make([]float64, len(w.start))
	copy(w.want, w.start)
	// The serial reference sweeps whole rows: Gauss-Seidel in row-major
	// order gives every cell the same operands as the tiled wavefront.
	for s := 0; s < heatSweeps; s++ {
		sweepTile(w.want, w.stride, w.n, 0, 0)
	}
	w.lat = newRecorder(1, w.reps)
	_, err := w.run(w.warmReps)
	return err
}

func (w *heatFine) close() { w.rt.Close() }

func (w *heatFine) window() (win, error) { return w.run(w.reps) }

// rep is the dependency representative of a tile: its first cell.
func (w *heatFine) rep(bi, bj int) *float64 {
	return &w.grid[(bi*w.tile+1)*w.stride+bj*w.tile+1]
}

// accesses fills sp with tile (bi, bj)'s access list.
func (w *heatFine) accesses(sp *[5]repro.AccessSpec, bi, bj int) []repro.AccessSpec {
	s := append(sp[:0], repro.InOut(w.rep(bi, bj)))
	if bi > 0 {
		s = append(s, repro.In(w.rep(bi-1, bj)))
	}
	if bj > 0 {
		s = append(s, repro.In(w.rep(bi, bj-1)))
	}
	if bi < w.nb-1 {
		s = append(s, repro.In(w.rep(bi+1, bj)))
	}
	if bj < w.nb-1 {
		s = append(s, repro.In(w.rep(bi, bj+1)))
	}
	return s
}

// run performs reps repetitions untraced. Resetting the grid and
// comparing it with the reference happen between repetitions, inside
// the window's wall time but outside the latency samples.
func (w *heatFine) run(reps int) (win, error) {
	w.lat.reset()
	g, stride, tile, nb := w.grid, w.stride, w.tile, w.nb
	var verr error
	var t timed
	t.start()
	err := w.rt.Run(func(c *repro.Ctx) {
		var sp [5]repro.AccessSpec
		for r := 0; r < reps && verr == nil; r++ {
			copy(g, w.start)
			t0 := now()
			for s := 0; s < heatSweeps; s++ {
				for bi := 0; bi < nb; bi++ {
					for bj := 0; bj < nb; bj++ {
						c.Spawn(func(*repro.Ctx) { sweepTile(g, stride, tile, bi, bj) }, w.accesses(&sp, bi, bj)...)
					}
				}
			}
			c.Taskwait()
			w.lat.add(0, now()-t0)
			verr = w.verify(r)
		}
	})
	t.stop()
	if err == nil {
		err = verr
	}
	return win{ops: reps * w.fineTasksPerRep(), timed: t, lat: w.lat, workers: w.workers}, err
}

// verify demands a grid bit-equal to the serial sweeps: a dropped
// tile, or one that ran before a neighbour it reads, changes cells.
func (w *heatFine) verify(rep int) error {
	for i, v := range w.grid {
		if v != w.want[i] {
			return fmt.Errorf("heat_fine: repetition %d cell (%d,%d) = %v, serial %v",
				rep, i/w.stride, i%w.stride, v, w.want[i])
		}
	}
	return nil
}

// windowTraced is window with spans on one tile task in sampleEvery
// and on every Taskwait, shaped as in spawn_flat: here the root's self
// time is dependency wait plus queue wait.
func (w *heatFine) windowTraced(tr *tracer) (win, error) {
	reps := w.reps
	w.lat.reset()
	g, stride, tile, nb := w.grid, w.stride, w.tile, w.nb
	var verr error
	var t timed
	t.start()
	err := w.rt.Run(func(c *repro.Ctx) {
		var sp [5]repro.AccessSpec
		me := c.Worker()
		id := int64(0)
		for r := 0; r < reps && verr == nil; r++ {
			copy(g, w.start)
			t0 := now()
			for s := 0; s < heatSweeps; s++ {
				for bi := 0; bi < nb; bi++ {
					for bj := 0; bj < nb; bj++ {
						id++
						if id%sampleEvery != 0 {
							c.Spawn(func(*repro.Ctx) { sweepTile(g, stride, tile, bi, bj) }, w.accesses(&sp, bi, bj)...)
							continue
						}
						tid, s0 := id, now()
						c.Spawn(func(cc *repro.Ctx) {
							b0 := now()
							sweepTile(g, stride, tile, bi, bj)
							b1 := now()
							tr.add(cc.Worker(), spanBody, tid, b0, b1)
							tr.addRoot(cc.Worker(), spanTask, tid, s0, b1)
						}, w.accesses(&sp, bi, bj)...)
						tr.add(me, spanSpawnCall, tid, s0, now())
					}
				}
			}
			w0 := now()
			c.Taskwait()
			w1 := now()
			tr.addRoot(me, spanTaskwait, -int64(r)-1, w0, w1)
			w.lat.add(0, w1-t0)
			verr = w.verify(r)
		}
	})
	t.stop()
	if err == nil {
		err = verr
	}
	return win{ops: reps * w.fineTasksPerRep(), timed: t, lat: w.lat, workers: w.workers}, err
}

// heatFineIdeal is the rate the same cell updates reach at coarse
// tiles, where per-task costs vanish, in fine-task equivalents per
// second: the denominator of fine_grain_efficiency.
func heatFineIdeal(sz sizing) (float64, error) {
	ws, _, _, err := runInstances(newHeatFine, sz, phaseRef, refInstances)
	if err != nil {
		return 0, err
	}
	return median(col(ws, func(s winStats) float64 { return s.Throughput })), nil
}
