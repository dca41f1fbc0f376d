package event

import (
	"math/rand"
	"testing"
	"time"
)

// fakeClock is an injected clock for the queue: tests move it by hand,
// so which timers are due is fully deterministic.
type fakeClock struct{ ns int64 }

func (c *fakeClock) now() int64              { return c.ns }
func (c *fakeClock) advance(d time.Duration) { c.ns += int64(d) }

// newClocked returns a queue on a fake clock starting at 1 s, with the
// fallback goroutine marked started but never run: only the test's
// Poll calls fire timers.
func newClocked(t *testing.T) (*Wheel, *fakeClock) {
	clk := &fakeClock{ns: int64(time.Second)}
	w := NewWheel(0, 0)
	w.now = clk.now
	w.started, w.stop = true, make(chan struct{})
	t.Cleanup(w.Stop)
	return w, clk
}

// checkMin fails t unless the published minimum is the heap's root (or
// never on an empty heap).
func checkMin(t *testing.T, w *Wheel) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	want := int64(never)
	if len(w.h) > 0 {
		want = w.h[0].at
	}
	for i := 1; i < len(w.h); i++ {
		if w.h[(i-1)/2].at > w.h[i].at {
			t.Fatalf("heap order broken at %d: parent %d > child %d", i, w.h[(i-1)/2].at, w.h[i].at)
		}
	}
	if got := w.next.Load(); got != want {
		t.Fatalf("published minimum %d, heap root %d", got, want)
	}
}

// recorder is a Completer that logs which thread completed it.
type recorder struct {
	key   int
	fired *[]int
	ids   *[]int
}

func (r recorder) Complete(id int) {
	*r.fired = append(*r.fired, r.key)
	*r.ids = append(*r.ids, id)
}

// TestWheelPollInjectedClock drives Poll on an injected clock. Deadlines
// inserted out of order fire in deadline order, none before its
// deadline, each on the polling thread's index; the published minimum
// tracks the heap after every push and pop; and a callback may arm a
// further timer, which fires on a later poll once it is due.
func TestWheelPollInjectedClock(t *testing.T) {
	w, clk := newClocked(t)
	if w.Poll(0) {
		t.Fatal("Poll fired on an empty queue")
	}
	checkMin(t, w)

	rng := rand.New(rand.NewSource(1))
	const n = 200
	delays := rng.Perm(n) // distinct delays, in microseconds, out of order
	var fired, ids []int
	for _, us := range delays {
		w.Arm(time.Duration(us)*time.Microsecond, nil, recorder{us, &fired, &ids})
		checkMin(t, w)
	}
	for step := 0; step < n; step++ {
		// The clock sits at each deadline exactly: the timer due now
		// fires, the one due a nanosecond later does not.
		clk.ns = int64(time.Second) + int64(step)*int64(time.Microsecond) - 1
		if w.Poll(3) {
			t.Fatalf("a timer fired 1 ns before deadline %d µs", step)
		}
		clk.advance(1)
		if !w.Poll(3) {
			t.Fatalf("timer at %d µs did not fire at its deadline", step)
		}
		checkMin(t, w)
		if len(fired) != step+1 || fired[step] != step {
			t.Fatalf("after poll at %d µs fired %v", step, fired[max(0, len(fired)-3):])
		}
	}
	for _, id := range ids {
		if id != 3 {
			t.Fatalf("a timer completed on thread %d, not the polling thread 3", id)
		}
	}
	if w.next.Load() != never {
		t.Fatal("drained queue still publishes a deadline")
	}

	// Arming from inside a callback: the lock is not held while firing.
	var chained []int
	w.After(time.Millisecond, func() {
		chained = append(chained, 1)
		w.After(time.Millisecond, func() { chained = append(chained, 2) })
	})
	clk.advance(time.Millisecond)
	w.Poll(0)
	if len(chained) != 1 {
		t.Fatalf("first callback fired %d times", len(chained))
	}
	checkMin(t, w)
	if w.Poll(0) {
		t.Fatal("the chained timer fired at the instant it was armed")
	}
	clk.advance(time.Millisecond)
	w.Poll(0)
	if len(chained) != 2 {
		t.Fatalf("chained timer did not fire: %v", chained)
	}
	checkMin(t, w)
}

// TestWheelRoundsBoundary pins the revolution-boundary regression of the
// hashed wheel this queue replaced, where a delay that was an exact
// multiple of tick·buckets fired a full revolution late. The queue has
// no revolutions, so the delays that used to sit on either side of a
// boundary must each fire on exactly their deadline: not a nanosecond
// early, and not one former revolution late.
func TestWheelRoundsBoundary(t *testing.T) {
	const (
		tick    = time.Millisecond
		buckets = 8
	)
	w, clk := newClocked(t)
	for _, ticks := range []int{1, 2, buckets - 1, buckets, buckets + 1, 2 * buckets, 2*buckets + 1, 3 * buckets} {
		d := time.Duration(ticks) * tick
		start := clk.ns
		fired := false
		w.After(d, func() { fired = true })
		clk.ns = start + int64(d) - 1
		if w.Poll(0) || fired {
			t.Fatalf("timer %d ticks ahead fired 1 ns before its deadline", ticks)
		}
		clk.advance(1)
		if !w.Poll(0) || !fired {
			t.Fatalf("timer %d ticks ahead did not fire at its deadline", ticks)
		}
		checkMin(t, w)
	}
}

// TestWheelAfterExactRevolution is the wall-clock face of the same
// regression: an After whose delay was one exact revolution of the old
// wheel must fire after that delay, not a revolution later. Nothing
// polls here, so the fallback goroutine fires it. Margins are generous —
// late firing under scheduler pressure is allowed by the timer contract,
// but a full extra revolution is the bug.
func TestWheelAfterExactRevolution(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock timer test; covered deterministically by TestWheelRoundsBoundary")
	}
	const (
		tick    = 20 * time.Millisecond
		buckets = 4
	)
	// d/tick + 1 == buckets, the old exact-revolution placement.
	d := (buckets - 1) * tick
	w := NewWheel(tick, buckets)
	defer w.Stop()
	start := time.Now()
	done := make(chan time.Duration, 1)
	w.After(d, func() { done <- time.Since(start) })
	select {
	case got := <-done:
		if got < d {
			t.Fatalf("timer fired after %v, before the requested %v", got, d)
		}
		if limit := tick*buckets + tick*buckets/2; got > limit {
			t.Fatalf("timer fired after %v, a revolution late (want ~%v, limit %v)", got, d, limit)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
}

// TestWheelHoldSingleOwner: Hold keeps one idle worker up — the first
// to claim — while the earliest deadline is within Horizon, turns every
// other worker away, and steps the owner down once nothing is near.
func TestWheelHoldSingleOwner(t *testing.T) {
	w, clk := newClocked(t)
	if w.Hold(0) {
		t.Fatal("Hold kept a worker up with nothing armed")
	}
	w.After(Horizon+time.Microsecond, func() {})
	if w.Hold(0) || w.Hold(1) {
		t.Fatal("Hold kept a worker up for a deadline beyond the horizon")
	}
	clk.advance(2 * time.Microsecond)
	if !w.Hold(1) {
		t.Fatal("no owner for a deadline inside the horizon")
	}
	if w.Hold(0) || w.Hold(2) {
		t.Fatal("a second worker became timer owner")
	}
	if !w.Hold(1) {
		t.Fatal("the owner lost ownership while the deadline is near")
	}
	clk.advance(Horizon)
	w.Poll(1)
	if w.Hold(1) {
		t.Fatal("the owner stayed up with nothing armed")
	}
	if w.owner.Load() != 0 {
		t.Fatal("the owner did not step down")
	}
}
