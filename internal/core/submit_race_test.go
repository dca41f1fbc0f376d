package core

import (
	"context"
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"testing"
)

// depsKindsUnderStress returns the dependency systems the stress tests
// exercise. The CI stress matrix pins one system per job through
// REPRO_STRESS_DEPS ("wait-free" or "locked"); locally both run.
func depsKindsUnderStress() []DepsKind {
	switch os.Getenv("REPRO_STRESS_DEPS") {
	case "wait-free", "waitfree":
		return []DepsKind{DepsWaitFree}
	case "locked":
		return []DepsKind{DepsLocked}
	}
	return []DepsKind{DepsWaitFree, DepsLocked}
}

func (k DepsKind) testName() string {
	if k == DepsLocked {
		return "locked"
	}
	return "wait-free"
}

// TestConcurrentSubmitStorm hammers the sharded root-submission path:
// many goroutines call Submit with overlapping single- and multi-cell
// access sets (multi-cell sets exercise the ordered cross-shard lease)
// while a Run with a weak root access spawns children on the hottest
// cell, so nested chains and root chains interleave on the same
// addresses. Every increment must land exactly once and exclusively.
func TestConcurrentSubmitStorm(t *testing.T) {
	const (
		submitters = 8
		perSub     = 300
		ncells     = 8
		nested     = 200
	)
	for _, dk := range depsKindsUnderStress() {
		t.Run(dk.testName(), func(t *testing.T) {
			cfg := Config{Workers: 4, Deps: dk}
			rt := New(cfg)
			defer rt.Close()

			var cells [ncells]float64
			want := make([]int, ncells)

			// Expected per-cell totals, mirroring the deterministic
			// cell choice below.
			for g := 0; g < submitters; g++ {
				for i := 0; i < perSub; i++ {
					c1 := (g*31 + i) % ncells
					want[c1]++
					if i%5 == 0 {
						c2 := (c1 + 1 + i%(ncells-1)) % ncells
						want[c2]++
					}
				}
			}
			want[0] += nested

			// An active Run holds a weak root access on cells[0] and
			// spawns children incrementing it, concurrently with the
			// storm of root submissions on the same cell.
			runDone := make(chan error, 1)
			go func() {
				runDone <- rt.Run(func(c *Ctx) {
					for i := 0; i < nested; i++ {
						c.Spawn(func(*Ctx) { cells[0]++ }, InOut(&cells[0]))
					}
					c.Taskwait()
				}, WeakInOut(&cells[0]))
			}()

			var wg sync.WaitGroup
			errc := make(chan error, submitters)
			for g := 0; g < submitters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					handles := make([]*anyFuture, 0, perSub)
					for i := 0; i < perSub; i++ {
						c1 := (g*31 + i) % ncells
						if i%5 == 0 {
							// Multi-cell submission: both increments under
							// one root task whose lease may span shards.
							c2 := (c1 + 1 + i%(ncells-1)) % ncells
							handles = append(handles, submitAny(rt, func(*Ctx) (any, error) {
								cells[c1]++
								cells[c2]++
								return nil, nil
							}, InOut(&cells[c1]), InOut(&cells[c2])))
							continue
						}
						handles = append(handles, submitAny(rt, func(*Ctx) (any, error) {
							cells[c1]++
							return nil, nil
						}, InOut(&cells[c1])))
					}
					for _, h := range handles {
						if _, err := h.Wait(nil); err != nil {
							errc <- err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			if err := <-runDone; err != nil {
				t.Fatal(err)
			}
			for c := range cells {
				if cells[c] != float64(want[c]) {
					t.Errorf("cell %d = %v, want %d (lost or duplicated increments)", c, cells[c], want[c])
				}
			}
			if n := rt.LiveTasks(); n != 0 {
				t.Fatalf("LiveTasks = %d after storm", n)
			}
		})
	}
}

// TestSubmitCancellationMidStorm cancels a context while a storm of
// submitAnyCtx chains is in flight. The first task of the hot chain blocks
// until the cancellation has happened, so every submission queued
// behind it is provably unstarted at cancel time: each of those handles
// must resolve with an error matching ErrTaskSkipped that also wraps
// the cancellation cause, and the graph must fully unwind.
func TestSubmitCancellationMidStorm(t *testing.T) {
	const (
		submitters = 6
		perSub     = 100
	)
	for _, dk := range depsKindsUnderStress() {
		t.Run(dk.testName(), func(t *testing.T) {
			cfg := Config{Workers: 4, Deps: dk}
			rt := New(cfg)
			defer rt.Close()

			ctx, cancel := context.WithCancel(context.Background())
			var hot float64
			cancelled := make(chan struct{})

			// Blocker: starts immediately (head of the hot chain), then
			// parks until the cancellation below has been issued.
			blocker := submitAnyCtx(ctx, rt, func(c *Ctx) (any, error) {
				<-cancelled
				return nil, nil
			}, InOut(&hot))

			var executed atomic.Int64
			var wg sync.WaitGroup
			handles := make([][]*anyFuture, submitters)
			for g := 0; g < submitters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					hs := make([]*anyFuture, 0, perSub)
					for i := 0; i < perSub; i++ {
						hs = append(hs, submitAnyCtx(ctx, rt, func(*Ctx) (any, error) {
							executed.Add(1)
							return nil, nil
						}, InOut(&hot)))
					}
					handles[g] = hs
				}(g)
			}
			wg.Wait()
			cancel()
			close(cancelled)

			if _, err := blocker.Wait(nil); err != nil {
				// The blocker ran; its own error reflects the scope's
				// observed cancellation, which is legitimate.
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("blocker error = %v", err)
				}
			}
			skipped := 0
			for g := range handles {
				for _, h := range handles[g] {
					_, err := h.Wait(nil) // every handle must resolve
					if err == nil {
						continue
					}
					if !errors.Is(err, ErrTaskSkipped) || !errors.Is(err, context.Canceled) {
						t.Fatalf("drained handle error = %v; want ErrTaskSkipped wrapping context.Canceled", err)
					}
					skipped++
				}
			}
			if skipped == 0 {
				t.Fatal("no submission was drained, cancellation did not interleave with the storm")
			}
			if got := int(executed.Load()) + skipped; got != submitters*perSub {
				t.Fatalf("executed+skipped = %d, want %d", got, submitters*perSub)
			}
			if n := rt.LiveTasks(); n != 0 {
				t.Fatalf("LiveTasks = %d after cancelled storm", n)
			}
		})
	}
}

// TestSubmitDuringRunAcrossShardCounts pins the smallest and the
// clamped root-shard counts the worker count derives (16 and 64): both
// must produce identical results, and the slot space must be exactly
// workers, shards and serve slots.
func TestSubmitDuringRunAcrossShardCounts(t *testing.T) {
	for _, tc := range []struct{ workers, shards int }{{1, 16}, {16, 64}} {
		rt := New(Config{Workers: tc.workers})
		var x float64
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					if err := rt.Run(func(*Ctx) { x++ }, InOut(&x)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if x != 400 {
			t.Fatalf("workers=%d: x = %v, want 400", tc.workers, x)
		}
		if got := rt.rootDom.Shards(); got != tc.shards {
			t.Fatalf("workers=%d: %d root shards, want %d", tc.workers, got, tc.shards)
		}
		if got, want := rt.Slots(), tc.workers+tc.shards+2; got != want {
			t.Fatalf("workers=%d: Slots() = %d, want %d", tc.workers, got, want)
		}
		rt.Close()
	}
}
