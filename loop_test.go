package repro_test

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

func TestForEachCoversRange(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()
	const n = 20000
	hits := make([]atomic.Int32, n)
	err := repro.ForEach(rt, 0, n, func(_ *repro.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i].Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("iteration %d ran %d times", i, hits[i].Load())
		}
	}
}

func TestForEachWithGrain(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()
	const n, grain = 1000, 50
	var covered atomic.Int64
	err := repro.ForEach(rt, 0, n, func(_ *repro.Ctx, lo, hi int) {
		if hi-lo > grain {
			t.Errorf("chunk [%d,%d) exceeds grain %d", lo, hi, grain)
		}
		covered.Add(int64(hi - lo))
	}, repro.WithGrain(grain))
	if err != nil {
		t.Fatal(err)
	}
	if covered.Load() != n {
		t.Fatalf("covered %d of %d iterations", covered.Load(), n)
	}
}

// TestForEachAccessesOrderLoops chains two loops and a reader through
// WithAccesses: the second loop must observe every write of the first,
// and the final Submit every write of the second.
func TestForEachAccessesOrderLoops(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()
	const n = 10000
	data := make([]float64, n)
	if err := repro.ForEach(rt, 0, n, func(_ *repro.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			data[i] = 1
		}
	}, repro.WithAccesses(repro.Out(&data[0]))); err != nil {
		t.Fatal(err)
	}
	if err := repro.ForEach(rt, 0, n, func(_ *repro.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			data[i] += 2
		}
	}, repro.WithAccesses(repro.InOut(&data[0]))); err != nil {
		t.Fatal(err)
	}
	f := repro.Submit(rt, func(*repro.Ctx) (float64, error) {
		s := 0.0
		for i := range data {
			s += data[i]
		}
		return s, nil
	}, repro.In(&data[0]))
	sum, err := f.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum != 3*n {
		t.Fatalf("sum = %v, want %v", sum, 3*n)
	}
}

// TestForReduceMatchesSerial is the differential check of the satellite
// list: ForReduce against a serial reduction over the same random data
// (integer values keep int64 addition exact), across worker counts and
// grains.
func TestForReduceMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 30000
	data := make([]int64, n)
	var want int64
	for i := range data {
		data[i] = int64(rng.Intn(1000))
		want += data[i]
	}
	for _, workers := range []int{1, 4} {
		for _, grain := range []int{0, 7, 4096} {
			rt := repro.New(repro.WithWorkers(workers))
			got, err := repro.ForReduce(rt, 0, n, int64(0),
				func(a, b int64) int64 { return a + b },
				func(_ *repro.Ctx, lo, hi int, acc *int64) {
					for i := lo; i < hi; i++ {
						*acc += data[i]
					}
				}, repro.WithGrain(grain))
			rt.Close()
			if err != nil {
				t.Fatalf("workers=%d grain=%d: %v", workers, grain, err)
			}
			if got != want {
				t.Fatalf("workers=%d grain=%d: ForReduce = %d, serial = %d", workers, grain, got, want)
			}
		}
	}
}

func TestForReduceNonCommutativeTypes(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()
	// Max-reduction with a struct accumulator: identity must be neutral.
	type peak struct {
		v   int
		idx int
	}
	const n = 5000
	data := make([]int, n)
	rng := rand.New(rand.NewSource(7))
	for i := range data {
		data[i] = rng.Intn(1 << 20)
	}
	data[n/3] = 1 << 21 // the unique maximum
	got, err := repro.ForReduce(rt, 0, n, peak{v: -1, idx: -1},
		func(a, b peak) peak {
			if b.v > a.v {
				return b
			}
			return a
		},
		func(_ *repro.Ctx, lo, hi int, acc *peak) {
			for i := lo; i < hi; i++ {
				if data[i] > acc.v {
					*acc = peak{v: data[i], idx: i}
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if got.idx != n/3 || got.v != 1<<21 {
		t.Fatalf("ForReduce found peak %+v, want {v:%d idx:%d}", got, 1<<21, n/3)
	}
}

// TestForReduceChunksOnServeSlot: ForReduce's private partials are
// indexed by Ctx.Worker(), and a chunk runs on whatever thread helps —
// here an inline-served request's Taskwait on a serve-slot index well
// past the worker count. With the only worker held, the loop is queued
// when the request's node spawns and waits, so the serve slot picks it up.
func TestForReduceChunksOnServeSlot(t *testing.T) {
	rt := repro.New(repro.WithWorkers(1))
	defer rt.Close()
	hold, held := make(chan struct{}), make(chan struct{})
	repro.Submit(rt, func(*repro.Ctx) (any, error) {
		close(held)
		<-hold
		return nil, nil
	})
	<-held
	const n = 1000
	type result struct {
		sum int64
		err error
	}
	res := make(chan result, 1)
	go func() {
		sum, err := repro.ForReduce(rt, 0, n, int64(0),
			func(a, b int64) int64 { return a + b },
			func(_ *repro.Ctx, lo, hi int, acc *int64) { *acc += int64(hi - lo) })
		res <- result{sum, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for rt.LiveTasks() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the loop never reached the queue")
		}
		time.Sleep(50 * time.Microsecond)
	}
	cg, err := repro.NewGraph().Add("a", nil, func(c *repro.Ctx, _ map[string]any) (any, error) {
		c.Spawn(func(*repro.Ctx) {})
		c.Taskwait()
		return nil, nil
	}).Compile(rt)
	if err != nil {
		t.Fatal(err)
	}
	e, err := cg.Do(context.Background())
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	e.Release()
	close(hold)
	if r := <-res; r.err != nil || r.sum != n {
		t.Fatalf("ForReduce = %d, %v; want %d, nil", r.sum, r.err, n)
	}
}

func TestForEachCtxCancellation(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var executed atomic.Int64
	const n = 200000
	err := repro.ForEachCtx(ctx, rt, 0, n, func(_ *repro.Ctx, lo, hi int) {
		if executed.Add(int64(hi-lo)) > n/20 {
			cancel()
		}
	}, repro.WithGrain(16))
	if !errors.Is(err, repro.ErrTaskSkipped) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrTaskSkipped wrapping context.Canceled", err)
	}
	if executed.Load() >= n {
		t.Fatal("every iteration ran despite cancellation")
	}
}

// TestGraphLoopNode runs a producer → loop → consumer DAG through the
// graph builder's AddLoop node.
func TestGraphLoopNode(t *testing.T) {
	rt := repro.New(repro.WithWorkers(4))
	defer rt.Close()
	const n = 8000
	data := make([]float64, n)
	res, err := repro.NewGraph().
		Add("init", nil, func(*repro.Ctx, map[string]any) (any, error) {
			for i := range data {
				data[i] = 1
			}
			return nil, nil
		}).
		AddLoop("scale", []string{"init"}, 0, n, func(_ *repro.Ctx, lo, hi int) {
			for i := lo; i < hi; i++ {
				data[i] *= 3
			}
		}).
		Add("sum", []string{"scale"}, func(*repro.Ctx, map[string]any) (any, error) {
			s := 0.0
			for i := range data {
				s += data[i]
			}
			return s, nil
		}).
		Run(context.Background(), rt)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := repro.Value[float64](res, "sum")
	if err != nil {
		t.Fatal(err)
	}
	if sum != 3*n {
		t.Fatalf("sum = %v, want %v (loop node ordered wrongly)", sum, 3*n)
	}
}

// TestGraphLoopNodeSkippedOnDependencyFailure: a failed dependency must
// skip the loop entirely.
func TestGraphLoopNodeSkippedOnDependencyFailure(t *testing.T) {
	rt := repro.New(repro.WithWorkers(2))
	defer rt.Close()
	boom := errors.New("boom")
	var ran atomic.Bool
	res, err := repro.NewGraph().
		Add("bad", nil, func(*repro.Ctx, map[string]any) (any, error) { return nil, boom }).
		AddLoop("loop", []string{"bad"}, 0, 100, func(_ *repro.Ctx, lo, hi int) {
			ran.Store(true)
		}).
		Run(context.Background(), rt)
	if !errors.Is(err, boom) {
		t.Fatalf("aggregate err = %v, want boom", err)
	}
	if ran.Load() {
		t.Fatal("loop chunks ran despite a failed dependency")
	}
	if res["loop"].Err == nil {
		t.Fatal("loop node reports no error despite its dependency failing")
	}
}
