package core

import (
	"cmp"
	"context"
	"errors"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/alloc"
	"repro/internal/trace"
)

// shellCount decorates the task allocator: it counts the distinct
// shells it ever handed out.
type shellCount struct {
	alloc.Allocator[Task]
	mu   sync.Mutex
	seen map[*Task]struct{}
}

func (s *shellCount) Get(worker int) *Task {
	t := s.Allocator.Get(worker)
	s.mu.Lock()
	s.seen[t] = struct{}{}
	s.mu.Unlock()
	return t
}

// TestSubmitDistinctAddressesRecyclesShells: concurrent submitters send
// roots on distinct addresses — the last root on each address a chain
// tail nothing ever replaces — and every eighth also on one shared hot
// cell, so replaced tails and chained successors interleave with the
// registrar's sweeps. Every root completes and the hot cell's
// increments stay exclusive; and since swept tails give their shells
// back, the shells ever made are bounded by what the shard maps may
// hold (twice the unreleased tails plus the sweep floor of 64, per
// shard) and the allocator's free lists, not by the submission count.
func TestSubmitDistinctAddressesRecyclesShells(t *testing.T) {
	const submitters, window = 4, 32
	n := 100_000
	if testing.Short() {
		n = 20_000
	}
	for _, dk := range depsKindsUnderStress() {
		t.Run(dk.testName(), func(t *testing.T) {
			rt := build(Config{Workers: 2, Deps: dk})
			shells := &shellCount{Allocator: rt.alloc, seen: map[*Task]struct{}{}}
			rt.alloc = shells
			rt.start()
			defer rt.Close()

			cells := make([]float64, n)
			var hot float64
			var wg sync.WaitGroup
			for g := range submitters {
				wg.Add(1)
				go func() {
					defer wg.Done()
					futs := make([]*anyFuture, 0, window)
					for i := g; i < n; i += submitters {
						accs := []AccessSpec{InOut(&cells[i])}
						if i%8 == 0 {
							accs = append(accs, InOut(&hot))
						}
						futs = append(futs, submitAny(rt, func(*Ctx) (any, error) {
							if len(accs) > 1 {
								hot++
							}
							return nil, nil
						}, accs...))
						if len(futs) == window || i+submitters >= n {
							for _, f := range futs {
								if _, err := f.Wait(nil); err != nil {
									t.Error(err)
								}
							}
							futs = futs[:0]
						}
					}
				}()
			}
			wg.Wait()
			if want := float64((n + 7) / 8); hot != want {
				t.Errorf("hot cell = %v, want %v", hot, want)
			}
			if live := rt.LiveTasks(); live != 0 {
				t.Fatalf("LiveTasks = %d after every root resolved", live)
			}
			shards := rt.rootDom.Shards()
			bound := shards*(2*submitters*window+64) + rt.Slots()*2*64
			made := len(shells.seen)
			t.Logf("%d shells made for %d roots", made, n)
			if made > bound {
				t.Errorf("%d shells made for %d roots, want at most %d", made, n, bound)
			}
		})
	}
}

// TestRootAdmission drives every root kind through the one admission
// and the one completion fold: a sealed runtime rejects the root with
// ErrRuntimeDraining before its body can run, a context cancelled before
// submission drains the root with a skip marker that carries the cause,
// and a FailFast child's error reaches the root's result slot — a
// Handle for Run, Submit and loops, a Req on both SubmitReq paths.
func TestRootAdmission(t *testing.T) {
	req := func(rt *Runtime, ctx context.Context, body func(*Ctx)) error {
		r := NewReq()
		rt.SubmitReq(ctx, r, 0, body)
		return r.Wait()
	}
	kinds := []struct {
		name     string
		dispatch bool // every serve slot held: SubmitReq dispatches
		submit   func(rt *Runtime, ctx context.Context, body func(*Ctx)) error
	}{
		{"run", false, func(rt *Runtime, ctx context.Context, body func(*Ctx)) error {
			return rt.RunCtx(ctx, body)
		}},
		{"submit", false, func(rt *Runtime, ctx context.Context, body func(*Ctx)) error {
			_, err := submitAnyCtx(ctx, rt, func(c *Ctx) (any, error) { body(c); return nil, nil }).Wait(nil)
			return err
		}},
		{"loop", false, func(rt *Runtime, ctx context.Context, body func(*Ctx)) error {
			return rt.SubmitLoop(ctx, 0, 1, 1, func(c *Ctx, _, _ int) { body(c) }).Wait(nil)
		}},
		{"req-inline", false, req},
		{"req-dispatch", true, req},
	}
	boom := errors.New("boom")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	rows := []struct {
		name    string
		ctx     context.Context
		drain   bool
		body    func(*Ctx)
		runs    bool
		wantErr []error
	}{
		{"sealed", context.Background(), true, nil, false, []error{ErrRuntimeDraining}},
		{"cancelled", cancelled, false, nil, false, []error{ErrTaskSkipped, context.Canceled}},
		{"child-fails", context.Background(), false, func(c *Ctx) {
			c.Spawn(func(c *Ctx) { c.Fail(boom) })
		}, true, []error{boom}},
	}
	for _, k := range kinds {
		for _, row := range rows {
			t.Run(k.name+"/"+row.name, func(t *testing.T) {
				rt := New(testConfig(VariantOptimized))
				defer rt.Close()
				if k.dispatch {
					defer holdServeSlots(t, rt)()
				}
				if row.drain {
					if err := rt.Drain(context.Background()); err != nil {
						t.Fatalf("Drain: %v", err)
					}
				}
				var ran atomic.Bool
				err := k.submit(rt, row.ctx, func(c *Ctx) {
					ran.Store(true)
					if row.body != nil {
						row.body(c)
					}
				})
				for _, want := range row.wantErr {
					if !errors.Is(err, want) {
						t.Errorf("error = %v, want one matching %v", err, want)
					}
				}
				if ran.Load() != row.runs {
					t.Errorf("body ran = %v, want %v", ran.Load(), row.runs)
				}
				if n := rt.LiveTasks(); n != 0 {
					t.Errorf("LiveTasks = %d after the root resolved", n)
				}
			})
		}
	}
}

// TestRootLeaseIgnoresAttributes: a root's shard lease comes from its
// data clauses alone. A root with priority, deadline and inheritance
// plus one InOut registers on the slot of the InOut's shard, and
// attribute-only roots rotate across shards as access-free ones do. The
// slot is the index of the root's KTaskCreate event, read after Close.
func TestRootLeaseIgnoresAttributes(t *testing.T) {
	for _, dk := range []DepsKind{DepsWaitFree, DepsLocked} {
		rt := New(Config{Workers: 2, Deps: dk, TraceCapacity: 1 << 10})
		// An address off shard 0, where a nil attribute address would
		// hash, so a lease that counted attributes would show.
		var cells [64]int
		x := &cells[0]
		for i := 1; rt.rootDom.Bit(unsafe.Pointer(x)) == 1; i++ {
			x = &cells[i]
		}
		want := int32(rt.cfg.Workers + bits.TrailingZeros64(rt.rootDom.Bit(unsafe.Pointer(x))))
		attrs := []AccessSpec{Priority(MaxPriority), Deadline(NowNS() + int64(time.Hour)), Inherit()}
		if err := rt.Run(func(*Ctx) {}, append(attrs, InOut(x))...); err != nil {
			t.Fatal(err)
		}
		const attrOnly = 8
		for range attrOnly {
			if err := rt.Run(func(*Ctx) {}, attrs...); err != nil {
				t.Fatal(err)
			}
		}
		rt.Close()
		var creates []trace.Event
		for _, evs := range rt.Tracer().Snapshot().PerCore {
			for _, e := range evs {
				if e.Kind == trace.KTaskCreate {
					creates = append(creates, e)
				}
			}
		}
		if len(creates) != 1+attrOnly {
			t.Fatalf("deps %d: %d task-create events, want %d", dk, len(creates), 1+attrOnly)
		}
		slices.SortFunc(creates, func(a, b trace.Event) int { return cmp.Compare(a.TS, b.TS) })
		if got := creates[0].Worker; got != want {
			t.Errorf("deps %d: the InOut root registered on slot %d, want %d (its address's shard)", dk, got, want)
		}
		seen := map[int32]bool{}
		for _, e := range creates[1:] {
			seen[e.Worker] = true
		}
		if len(seen) < 2 {
			t.Errorf("deps %d: %d attribute-only roots all registered on slots %v, want a rotation", dk, attrOnly, seen)
		}
	}
}
