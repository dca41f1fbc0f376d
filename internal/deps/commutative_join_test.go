package deps

import (
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestCommutativeJoinReadiesOnce: a commutative member that joins an open
// run is published to the run — the thread that releases the run's
// predecessor broadcasts satisfiability to every member — while its task
// is still registering its other accesses. Its task must become ready
// exactly once all the same. Here a writer h on x is followed by c1, which
// starts a commutative run on x; then c2 = [Commutative(x), InOut(y)]
// registers on index 0 while h unregisters on index 1. If c2's pending
// count is raised only after the join, the broadcast can take it to zero
// first: c2 is readied while still registering, and the drop of its
// registration guard readies it a second time.
func TestCommutativeJoinReadiesOnce(t *testing.T) {
	// The race detector widens the window: 20 000 rounds under it show
	// the double ready as often as 200 000 without.
	iters := 200_000
	if testing.Short() || raceEnabled {
		iters = 20_000
	}
	var x, y float64
	specH := AccessSpec{Addr: unsafe.Pointer(&x), Type: ReadWrite}
	specC := AccessSpec{Addr: unsafe.Pointer(&x), Type: Commutative}
	specY := AccessSpec{Addr: unsafe.Pointer(&y), Type: ReadWrite}

	var c2 atomic.Pointer[Node]
	var c2Ready atomic.Int32
	sys := NewWaitFree(func(n *Node, _ int) {
		if n == c2.Load() {
			c2Ready.Add(1)
		}
	}, 1)

	// The unregistering side runs on a goroutine of its own for the
	// whole test; each round hands it h through go and waits on done.
	var h atomic.Pointer[Node]
	var round, done atomic.Int64
	quit, exited := make(chan struct{}), make(chan struct{})
	defer func() {
		close(quit)
		<-exited
	}()
	go func() {
		defer close(exited)
		for r := int64(1); ; r++ {
			for i := 0; round.Load() != r; i++ {
				select {
				case <-quit:
					return
				default:
				}
				if i > 64 {
					runtime.Gosched()
				}
			}
			sys.Unregister(h.Load(), 1)
			done.Store(r)
		}
	}()

	twice := 0
	for r := int64(1); r <= int64(iters); r++ {
		var root Node
		hn := pinnedNode(specH)
		sys.Register(&root, hn, 0)
		sys.Register(&root, pinnedNode(specC), 0)
		cn := pinnedNode(specC, specY)
		c2.Store(cn)
		c2Ready.Store(0)
		h.Store(hn)
		round.Store(r)
		sys.Register(&root, cn, 0)
		for i := 0; done.Load() != r; i++ {
			if i > 64 {
				runtime.Gosched()
			}
		}
		// Both threads are done: the run's broadcast has reached c2.
		if n := c2Ready.Load(); n != 1 {
			if n == 0 {
				t.Fatalf("round %d: c2 never became ready", r)
			}
			twice++
		}
	}
	if twice > 0 {
		t.Fatalf("c2 was readied more than once in %d of %d rounds", twice, iters)
	}
}

// TestCommutativeJoinParentAccess: the same join, one nesting level
// down. The run lives in the domain of a task p that has an access on x
// itself, so every member nests under p's access: linkAfterGroup writes
// the joining member's parentAccess right after the join has published
// it, and the member's release reads it to return its child guard to
// p's access. Here the thread whose Unregister of h broadcasts the run's
// satisfiability also runs c2 — unregisters it — whenever that
// broadcast is what readied it. Were c2 readied while still
// registering, that release would read parentAccess as the registrar
// writes it: the race detector reports it, and without it a release
// that read nil leaves p's child guard one too high. Counted before the
// first link, c2's pending count keeps it unready until its
// registration is done, and either thread may run it.
func TestCommutativeJoinParentAccess(t *testing.T) {
	iters := 200_000
	if testing.Short() || raceEnabled {
		iters = 20_000
	}
	var x, y float64
	specP := AccessSpec{Addr: unsafe.Pointer(&x), Type: ReadWrite}
	specH := AccessSpec{Addr: unsafe.Pointer(&x), Type: ReadWrite}
	specC := AccessSpec{Addr: unsafe.Pointer(&x), Type: Commutative}
	specY := AccessSpec{Addr: unsafe.Pointer(&y), Type: ReadWrite}

	var c2 atomic.Pointer[Node]
	var c2Ready atomic.Int32
	var readiedOn atomic.Int32 // the index whose drain readied c2 first, or -1
	sys := NewWaitFree(func(n *Node, worker int) {
		if n == c2.Load() {
			c2Ready.Add(1)
			readiedOn.CompareAndSwap(-1, int32(worker))
		}
	}, 1)

	var h atomic.Pointer[Node]
	var round, done atomic.Int64
	quit, exited := make(chan struct{}), make(chan struct{})
	defer func() {
		close(quit)
		<-exited
	}()
	go func() {
		defer close(exited)
		for r := int64(1); ; r++ {
			for i := 0; round.Load() != r; i++ {
				select {
				case <-quit:
					return
				default:
				}
				if i > 64 {
					runtime.Gosched()
				}
			}
			sys.Unregister(h.Load(), 1)
			if readiedOn.Load() == 1 {
				sys.Unregister(c2.Load(), 1) // c2 runs where it became ready
			}
			done.Store(r)
		}
	}()

	for r := int64(1); r <= int64(iters); r++ {
		var root Node
		p := pinnedNode(specP)
		sys.Register(&root, p, 0)
		hn := pinnedNode(specH)
		sys.Register(p, hn, 0)
		sys.Register(p, pinnedNode(specC), 0)
		cn := pinnedNode(specC, specY)
		c2.Store(cn)
		c2Ready.Store(0)
		readiedOn.Store(-1)
		h.Store(hn)
		round.Store(r)
		sys.Register(p, cn, 0)
		for i := 0; done.Load() != r; i++ {
			if i > 64 {
				runtime.Gosched()
			}
		}
		switch readiedOn.Load() {
		case -1:
			t.Fatalf("round %d: c2 never became ready", r)
		case 0:
			sys.Unregister(cn, 0)
		}
		if n := c2Ready.Load(); n != 1 {
			t.Fatalf("round %d: c2 was readied %d times", r, n)
		}
		// h and c2 returned their guards to p's access; c1 still holds one.
		if g := p.Accesses[0].childGuard.Load(); g != 1 {
			t.Fatalf("round %d: p's access holds %d child guards, want c1's 1", r, g)
		}
	}
}
