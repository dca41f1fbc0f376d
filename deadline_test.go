package repro_test

import (
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// TestWithDeadlineOrdersEDF pins the EDF contract on a single worker:
// while the worker is busy, top-priority roots are queued with
// deadlines in non-sorted order plus one deadline-less straggler; on a
// WithEDF runtime they must run earliest-deadline-first, with the
// deadline-less task last.
func TestWithDeadlineOrdersEDF(t *testing.T) {
	rt := repro.New(repro.WithWorkers(1), repro.WithEDF())
	defer rt.Close()

	running := make(chan struct{})
	release := make(chan struct{})
	gate := repro.Submit(rt, func(*repro.Ctx) (int, error) {
		close(running)
		<-release
		return 0, nil
	})
	<-running

	var order []string
	var mu atomic.Int32
	record := func(s string) func(*repro.Ctx) (int, error) {
		return func(*repro.Ctx) (int, error) {
			for !mu.CompareAndSwap(0, 1) {
			}
			order = append(order, s)
			mu.Store(0)
			return 0, nil
		}
	}
	var futs []*repro.Future[int]
	submit := func(s string, accs ...repro.AccessSpec) {
		futs = append(futs, repro.Submit(rt, record(s), accs...))
	}
	submit("late", repro.WithPriority(repro.MaxPriority), repro.WithDeadline(3*time.Second))
	submit("early", repro.WithPriority(repro.MaxPriority), repro.WithDeadline(time.Second))
	submit("mid", repro.WithPriority(repro.MaxPriority), repro.WithDeadline(2*time.Second))
	submit("none", repro.WithPriority(repro.MaxPriority))
	close(release)
	for _, f := range futs {
		if _, err := f.Wait(nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := gate.Wait(nil); err != nil {
		t.Fatal(err)
	}
	want := []string{"early", "mid", "late", "none"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("EDF completion order %v, want %v", order, want)
	}
}

// TestPriorityInversionInheritance is the deterministic inversion
// regression: on one busy worker, a level-0 holder H owns the resource
// a MaxPriority waiter W needs, and a mid-priority flood is queued
// between them. With the inheritance clause on W, registering W
// promotes the queued H to W's level, so H then W run before any flood
// task. The companion subtest drops only the clause and shows the
// flood overtaking — the inversion the clause exists to fix — proving
// the assertion would fail with inheritance compiled out.
func TestPriorityInversionInheritance(t *testing.T) {
	const floods = 4
	run := func(t *testing.T, inherit bool) []string {
		rt := repro.New(repro.WithWorkers(1))
		defer rt.Close()

		running := make(chan struct{})
		release := make(chan struct{})
		gate := repro.Submit(rt, func(*repro.Ctx) (int, error) {
			close(running)
			<-release
			return 0, nil
		})
		<-running

		var order []string
		var mu atomic.Int32
		record := func(s string) func(*repro.Ctx) (int, error) {
			return func(*repro.Ctx) (int, error) {
				for !mu.CompareAndSwap(0, 1) {
				}
				order = append(order, s)
				mu.Store(0)
				return 0, nil
			}
		}
		var x byte
		var futs []*repro.Future[int]
		// Holder: level 0, owns x. Queued, not yet executing.
		futs = append(futs, repro.Submit(rt, record("holder"), repro.Out(&x)))
		// Mid-priority flood between the holder and the waiter.
		for i := 0; i < floods; i++ {
			futs = append(futs, repro.Submit(rt, record("flood"),
				repro.WithPriority(repro.MaxPriority-1)))
		}
		// Waiter: MaxPriority, needs x; registration promotes the holder
		// when the inheritance clause is present.
		waccs := []repro.AccessSpec{repro.In(&x), repro.WithPriority(repro.MaxPriority)}
		if inherit {
			waccs = append(waccs, repro.WithInheritance())
		}
		futs = append(futs, repro.Submit(rt, record("waiter"), waccs...))
		close(release)
		for _, f := range futs {
			if _, err := f.Wait(nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := gate.Wait(nil); err != nil {
			t.Fatal(err)
		}
		return order
	}
	pos := func(order []string, s string) int {
		for i, v := range order {
			if v == s {
				return i
			}
		}
		return -1
	}

	t.Run("inherit", func(t *testing.T) {
		order := run(t, true)
		if w := pos(order, "waiter"); w != 1 || order[0] != "holder" {
			t.Fatalf("with inheritance: order %v, want holder then waiter before the flood", order)
		}
	})
	t.Run("blind", func(t *testing.T) {
		// Sensitivity companion: without the clause the flood overtakes
		// the level-0 holder, so the waiter finishes last — the inversion
		// itself. This is what the run above would look like with
		// inheritance compiled out.
		order := run(t, false)
		if w := pos(order, "waiter"); w != len(order)-1 {
			t.Fatalf("without inheritance: order %v, want the waiter last (inverted)", order)
		}
	})
}

// TestCtxDeadline: the deadline clause is visible to the task body via
// Ctx.Deadline, children inherit it, and an explicit clause overrides
// the inherited one.
func TestCtxDeadline(t *testing.T) {
	rt := repro.New(repro.WithWorkers(2))
	defer rt.Close()
	abs := repro.NowNS() + int64(time.Hour)
	var got, child, override atomic.Int64
	err := rt.Run(func(c *repro.Ctx) {
		got.Store(c.Deadline())
		c.Spawn(func(cc *repro.Ctx) { child.Store(cc.Deadline()) })
		c.Spawn(func(cc *repro.Ctx) { override.Store(cc.Deadline()) }, repro.WithDeadlineAt(abs+1))
		c.Taskwait()
	}, repro.WithDeadlineAt(abs))
	if err != nil {
		t.Fatal(err)
	}
	if got.Load() != abs {
		t.Fatalf("Ctx.Deadline = %d, want %d", got.Load(), abs)
	}
	if child.Load() != abs {
		t.Fatalf("child deadline = %d, want inherited %d", child.Load(), abs)
	}
	if override.Load() != abs+1 {
		t.Fatalf("override deadline = %d, want %d", override.Load(), abs+1)
	}
}

// TestGraphSetDeadline: the named-graph layer stamps per-request
// absolute deadlines on both execution paths — deadlined nodes observe
// "request start + offset", deadline-less nodes observe none (the
// compiled template must not leak a sibling's clause or a stale
// request's stamp) — and unknown names are construction errors.
func TestGraphSetDeadline(t *testing.T) {
	rt := repro.New(repro.WithWorkers(2))
	defer rt.Close()

	var withDL, withoutDL atomic.Int64
	g := repro.NewGraph().
		Add("a", nil, func(c *repro.Ctx, _ map[string]any) (any, error) {
			withDL.Store(c.Deadline())
			return 1, nil
		}).
		Add("b", []string{"a"}, func(c *repro.Ctx, deps map[string]any) (any, error) {
			withoutDL.Store(c.Deadline())
			return deps["a"].(int) + 1, nil
		}).
		SetDeadline("a", time.Hour)

	check := func(t *testing.T, res map[string]repro.Result, err error, lo int64) {
		if err != nil {
			t.Fatal(err)
		}
		if v, err := repro.Value[int](res, "b"); err != nil || v != 2 {
			t.Fatalf("b = %v, %v", v, err)
		}
		dl := withDL.Load()
		if dl <= lo || dl > repro.NowNS()+int64(time.Hour) {
			t.Fatalf("node deadline = %d, want in (request start, now+1h]", dl)
		}
		if withoutDL.Load() != 0 {
			t.Fatalf("deadline-less node observed deadline %d, want 0", withoutDL.Load())
		}
	}

	lo := repro.NowNS()
	res, err := g.Run(nil, rt)
	check(t, res, err, lo)

	// A second compiled request must restamp (strictly later base).
	first := withDL.Load()
	res, err = g.Run(nil, rt)
	check(t, res, err, lo)
	if withDL.Load() < first {
		t.Fatalf("second request deadline %d earlier than first %d", withDL.Load(), first)
	}

	lo = repro.NowNS()
	res, err = repro.RunInterpreted(g, nil, rt)
	check(t, res, err, lo)

	if _, err := repro.NewGraph().SetDeadline("nope", time.Second).Run(nil, rt); err == nil {
		t.Fatal("SetDeadline on unknown task did not error")
	}
}

// TestPriorityInversionInheritanceTransitive: the inheritance walk is
// transitive through tasks registered after the runtime's first donor.
// A runtime records chain predecessors only from its first donor on
// (deps.System.RecordPreds), so a warm-up donor runs first; then the
// chain h2 → h1 → waiter is submitted, h1 holding y and needing x from
// h2, with the mid-priority flood between h1 and the waiter. The
// waiter's walk promotes h1 and, through h1's recorded slot, h2: all
// three run before any flood task. Without the warm-up, h1 registered
// before any donor and recorded nothing, so only h1 is promoted — the
// flood overtakes h2, and the three run last: depth one is exact, the
// rest of the walk is best-effort.
func TestPriorityInversionInheritanceTransitive(t *testing.T) {
	const floods = 4
	run := func(t *testing.T, warm bool) []string {
		rt := repro.New(repro.WithWorkers(1))
		defer rt.Close()
		if warm {
			if _, err := repro.Submit(rt, func(*repro.Ctx) (int, error) { return 0, nil },
				repro.WithPriority(repro.MaxPriority), repro.WithInheritance()).Wait(nil); err != nil {
				t.Fatal(err)
			}
		}
		running := make(chan struct{})
		release := make(chan struct{})
		gate := repro.Submit(rt, func(*repro.Ctx) (int, error) {
			close(running)
			<-release
			return 0, nil
		})
		<-running

		var order []string
		var mu atomic.Int32
		record := func(s string) func(*repro.Ctx) (int, error) {
			return func(*repro.Ctx) (int, error) {
				for !mu.CompareAndSwap(0, 1) {
				}
				order = append(order, s)
				mu.Store(0)
				return 0, nil
			}
		}
		var x, y byte
		var futs []*repro.Future[int]
		futs = append(futs, repro.Submit(rt, record("h2"), repro.Out(&x)))
		futs = append(futs, repro.Submit(rt, record("h1"), repro.In(&x), repro.Out(&y)))
		for i := 0; i < floods; i++ {
			futs = append(futs, repro.Submit(rt, record("flood"),
				repro.WithPriority(repro.MaxPriority-1)))
		}
		futs = append(futs, repro.Submit(rt, record("waiter"), repro.In(&y),
			repro.WithPriority(repro.MaxPriority), repro.WithInheritance()))
		close(release)
		for _, f := range futs {
			if _, err := f.Wait(nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := gate.Wait(nil); err != nil {
			t.Fatal(err)
		}
		return order
	}
	chain := []string{"h2", "h1", "waiter"}
	t.Run("warm", func(t *testing.T) {
		if order := run(t, true); !slices.Equal(order[:3], chain) {
			t.Fatalf("after a warm-up donor: order %v, want h2, h1, waiter before the flood", order)
		}
	})
	t.Run("cold", func(t *testing.T) {
		if order := run(t, false); !slices.Equal(order[floods:], chain) {
			t.Fatalf("with no earlier donor: order %v, want the flood first (h1 recorded no predecessor)", order)
		}
	})
}
