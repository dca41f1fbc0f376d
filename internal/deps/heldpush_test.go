package deps

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/asm"
)

// Tests for the pins the wait-free system does not take (see
// mailbox.push): each names the pin that covers the unpinned message and
// fails when that cover is dropped early. The runtime's side of the
// shell-guard contract is core.TestShellGuardOutlivesUnregister; the
// must-deliver messages are in reference_test.go.

// pinnedNode builds a node as the runtime's newTask does: the shell
// guard pin, then the accesses.
func pinnedNode(specs ...AccessSpec) *Node {
	n := &Node{}
	n.Payload = n
	n.Pin()
	acc := n.InitAccesses(len(specs))
	for i := range specs {
		acc[i].Init(n, specs[i])
	}
	return n
}

// TestHeldPushTailPinRidesSuccessorMessage: the flagHasSuccessor
// delivery to a replaced chain tail takes no pin of its own — the
// tail's link pin, held from its release until a successor replaces it,
// covers it and drops with it. Here the link pin is the only thing left
// holding the old tail's shell (its task completed long ago), and the
// quiescence callback recycles the shell as the runtime would. Dropping
// the link pin at the release, or anywhere before the delivery, fires
// the callback with the flag undelivered and the delivery then lands in
// a reset access.
func TestHeldPushTailPinRidesSuccessorMessage(t *testing.T) {
	var x float64
	var ready []*Node
	sys := NewWaitFree(func(n *Node, _ int) { ready = append(ready, n) }, 1)
	var quiesced []*Node
	var stateAtQuiescence asm.Flags
	sys.OnQuiescent(func(n *Node, _ int) {
		quiesced = append(quiesced, n)
		stateAtQuiescence = n.Accesses[0].state.Load()
		n.Reset()
	})
	var root Node
	spec := AccessSpec{Addr: unsafe.Pointer(&x), Type: ReadWrite}

	a := pinnedNode(spec)
	sys.Register(&root, a, 0)
	if len(ready) != 1 || ready[0] != a {
		t.Fatalf("chain head not ready: %v", ready)
	}
	sys.Unregister(a, 0)
	if a.Unpin() != 1 { // completeOne's drop of the shell guard
		t.Fatalf("pins = %d after completion, want 1: the link pin alone", a.pins.Load())
	}
	if len(quiesced) != 0 {
		t.Fatal("the chain tail quiesced while still installed in the domain map")
	}

	b := pinnedNode(spec)
	sys.Register(&root, b, 0)
	if len(quiesced) != 1 || quiesced[0] != a {
		t.Fatalf("replaced tail quiesced %d times during its successor's registration, want once", len(quiesced))
	}
	if !stateAtQuiescence.Has(flagHasSuccessor) {
		t.Fatalf("replaced tail quiesced in state %b, before flagHasSuccessor was delivered to it", stateAtQuiescence)
	}
	if len(ready) != 2 || ready[1] != b {
		t.Fatal("successor of a released tail not ready after registration")
	}
}

// TestHeldPushShellGuardCoversUnregister: Unregister's messages to the
// task's own accesses are held — unpinned — because the caller's shell
// guard outlives the call. With the guard in place no release inside
// Unregister can take the count to zero. The same sequence without it
// quiesces the node before Unregister has returned — under the loop
// over the node's domain that follows the drain, and under any
// evaluation of one of its accesses still running on another thread —
// which is why the runtime must not drop the guard earlier than
// completeOne does (core.TestShellGuardOutlivesUnregister).
func TestHeldPushShellGuardCoversUnregister(t *testing.T) {
	var x, y float64
	specs := []AccessSpec{
		{Addr: unsafe.Pointer(&x), Type: ReadWrite},
		{Addr: unsafe.Pointer(&y), Type: ReadWrite},
	}
	for _, guarded := range []bool{true, false} {
		sys := NewWaitFree(func(*Node, int) {}, 1)
		quiesced := false
		sys.OnQuiescent(func(*Node, int) { quiesced = true })
		var root Node
		n := pinnedNode(specs...)
		sys.Register(&root, n, 0)
		// Successors take over both chain tails, so only the guard and
		// the two link pins are left on n.
		sys.Register(&root, pinnedNode(specs...), 0)
		if got := n.pins.Load(); got != 3 {
			t.Fatalf("pins = %d before Unregister, want 3 (guard + two link pins)", got)
		}
		if !guarded {
			n.Unpin()
		}
		sys.Unregister(n, 0)
		switch {
		case guarded && (quiesced || n.pins.Load() != 1):
			t.Fatalf("guarded node: quiesced=%v, pins %d after Unregister, want the guard alone", quiesced, n.pins.Load())
		case !guarded && !quiesced:
			t.Fatal("unguarded node did not quiesce inside Unregister: the test no longer shows what the guard protects")
		}
	}
}

// TestHeldPushFinishedWithLiveChildren: Unregister merges finished and
// children-done into one delivery only when its own decrement closed the
// child guard, or when the task is a leaf. An access with a live child
// must get finished alone, and children-done later, from the child's
// release — two deliveries.
func TestHeldPushFinishedWithLiveChildren(t *testing.T) {
	var x float64
	spec := AccessSpec{Addr: unsafe.Pointer(&x), Type: ReadWrite}
	var ready []*Node
	sys := NewWaitFree(func(n *Node, _ int) { ready = append(ready, n) }, 1)
	var root Node

	parent, next := pinnedNode(spec), pinnedNode(spec)
	sys.Register(&root, parent, 0)
	sys.Register(&root, next, 0)
	child := pinnedNode(spec)
	sys.Register(parent, child, 0) // nests under parent's access
	pa := &parent.Accesses[0]

	sys.Unregister(parent, 0)
	if st := pa.state.Load(); !st.Has(flagFinished) || st.Has(flagChildrenDone) {
		t.Fatalf("parent access state %b after its Unregister: want finished without children-done", st)
	}
	if len(ready) != 2 { // parent and child, not next
		t.Fatalf("%d tasks ready with a child still live, want 2", len(ready))
	}
	sys.Unregister(child, 0)
	if st := pa.state.Load(); !st.Has(flagsReleased) {
		t.Fatalf("parent access state %b after its last child released: want released", st)
	}
	if len(ready) != 3 || ready[2] != next {
		t.Fatal("successor not ready after the parent access released")
	}

	// The leaf case, for contrast: one delivery carries both flags, and
	// the child guard is not touched — a leaf's empty domain map shows
	// that no child ever registered under its accesses.
	sys.Unregister(next, 0)
	leaf := pinnedNode(spec)
	sys.Register(&root, leaf, 0)
	sys.Unregister(leaf, 0)
	if st := leaf.Accesses[0].state.Load(); !st.Has(flagsReleased) {
		t.Fatalf("leaf access state %b after Unregister: want released", st)
	}
	if g := leaf.Accesses[0].childGuard.Load(); g != 0 {
		t.Fatalf("leaf access child guard %d after Unregister, want 0 (untouched)", g)
	}
}

// TestStencilReadForwardInFlight pins the rule that closes a window the
// recycled-shell stencil test below found under preemption (once in a
// few hundred runs on an oversubscribed host, in the protocol as it
// stood before this test existed): a read passes read satisfiability to
// a read successor early, and the thread that observed that transition
// can be preempted before its push — with no pin on the successor yet —
// while other threads run the read's task, release it and forward to
// the successor from there. Had that release carried both flags, the
// successor could run, release and be recycled without ever seeing the
// early forward, which then landed in a reused shell. So the release
// sends a read-compatible successor write satisfiability only: it
// cannot release before both messages have reached it. Here thread 0
// stops with the early forward queued, thread 1 does everything else,
// and the successor must still be waiting.
func TestStencilReadForwardInFlight(t *testing.T) {
	var x float64
	var ready []*Node
	sys := NewWaitFree(func(n *Node, _ int) { ready = append(ready, n) }, 2)
	var root Node
	w := pinnedNode(AccessSpec{Addr: unsafe.Pointer(&x), Type: ReadWrite})
	r1 := pinnedNode(AccessSpec{Addr: unsafe.Pointer(&x), Type: Read})
	r2 := pinnedNode(AccessSpec{Addr: unsafe.Pointer(&x), Type: Read})
	for _, n := range []*Node{w, r1, r2} {
		sys.Register(&root, n, 2)
	}
	if len(ready) != 1 || ready[0] != w {
		t.Fatalf("%d tasks ready behind a writer, want the writer alone", len(ready))
	}

	// Thread 0 unregisters the writer, one delivery at a time, and is
	// "preempted" once r1 has been satisfied and the forward to r2 is in
	// its mailbox.
	mb0 := &sys.mbs[0].mb
	step := func() {
		m, _ := mb0.Pop()
		sys.deliver(m.To, m.Bits&^msgHeld, mb0, 0)
		if m.Bits&msgHeld == 0 {
			sys.unpin(m.To.node, 0)
		}
	}
	w.Accesses[0].childGuard.Add(-1)
	mb0.pushHeld(&w.Accesses[0], flagFinished|flagChildrenDone)
	step() // the writer releases to r1
	step() // r1 satisfied: its task is ready, the forward to r2 queued
	if len(ready) != 2 || ready[1] != r1 || mb0.Len() != 1 {
		t.Fatalf("after two deliveries: %d ready, %d queued; want r1 ready and the forward to r2 queued", len(ready), mb0.Len())
	}

	// Thread 1 runs r1's task to completion: r1 releases to r2.
	sys.Unregister(r1, 1)
	if st := r2.Accesses[0].state.Load(); st.Has(flagReadSat) || len(ready) != 2 {
		t.Fatalf("r2 in state %b, %d tasks ready: r1's release satisfied r2 with r1's early forward still in flight", st, len(ready))
	}
	sys.drain(mb0, 0)
	if len(ready) != 3 || ready[2] != r2 {
		t.Fatal("r2 not ready once the early forward arrived")
	}
	sys.Unregister(r2, 1)
	if st := r2.Accesses[0].state.Load(); !st.Has(flagsReleased) {
		t.Fatalf("r2 in state %b after its Unregister, want released", st)
	}
}

// stencil5Specs appends tile (bi, bj)'s access list on an nb x nb tiling
// to dst[:0]: inout on the tile, in on each neighbour that exists.
func stencil5Specs(dst []AccessSpec, addr func(bi, bj int) unsafe.Pointer, nb, bi, bj int) []AccessSpec {
	dst = append(dst[:0], AccessSpec{Addr: addr(bi, bj), Type: ReadWrite})
	for _, d := range [][2]int{{-1, 0}, {0, -1}, {1, 0}, {0, 1}} {
		if i, j := bi+d[0], bj+d[1]; i >= 0 && j >= 0 && i < nb && j < nb {
			dst = append(dst, AccessSpec{Addr: addr(i, j), Type: Read})
		}
	}
	return dst
}

// stencilShell is one recyclable task of the stencil tests.
type stencilShell struct {
	node      Node
	s, bi, bj int
	pooled    atomic.Bool // in the free list
}

// TestStencil5RecycledShells runs the five-point Gauss-Seidel wavefront
// — heat_fine's task graph, five inline accesses per task — through the
// wait-free system with shells recycled exactly as the runtime recycles
// them: reset and reused the moment the pin count reaches zero, by
// whichever thread took it there. Init and Reset write the inline
// accesses with plain stores, so any message or link that outlives its
// pin shows up here as a data race under -race, and as a broken
// wavefront order (checked per task against its neighbours' sweep
// counts) without it.
func TestStencil5RecycledShells(t *testing.T) {
	const nb, sweeps, workers = 6, 40, 3
	var (
		mu    sync.Mutex
		ready []*stencilShell
		free  []*stencilShell
		made  int
	)
	// The first failure is reported and stops every thread; so does
	// half a minute without finishing (a lost message deadlocks the
	// wavefront).
	var stop atomic.Bool
	var executed atomic.Int32
	failf := func(format string, args ...any) {
		if !stop.Swap(true) {
			t.Errorf(format, args...)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	idle := func() {
		if time.Now().After(deadline) {
			failf("stuck: %d tasks executed after 30s", executed.Load())
		}
		runtime.Gosched()
	}
	recycle := func(n *Node) {
		sh := n.Payload.(*stencilShell)
		for i := range n.Accesses {
			if st := n.Accesses[i].state.Load(); !st.Has(flagsReleased) {
				failf("sweep %d tile (%d,%d) quiesced with access %d in state %b, not released", sh.s, sh.bi, sh.bj, i, st)
			}
		}
		if sh.pooled.Swap(true) {
			failf("sweep %d tile (%d,%d) quiesced twice", sh.s, sh.bi, sh.bj)
		}
		n.Reset()
		mu.Lock()
		free = append(free, sh)
		mu.Unlock()
	}
	sys := NewWaitFree(func(n *Node, _ int) {
		mu.Lock()
		ready = append(ready, n.Payload.(*stencilShell))
		mu.Unlock()
	}, workers)
	sys.OnQuiescent(func(n *Node, _ int) { recycle(n) })

	var cells [nb][nb]float64
	var swept [nb][nb]atomic.Int32 // sweeps completed per tile
	check := func(sh *stencilShell, bi, bj int, want int32) {
		if bi < 0 || bj < 0 || bi >= nb || bj >= nb {
			return
		}
		if got := swept[bi][bj].Load(); got != want {
			failf("sweep %d tile (%d,%d): neighbour (%d,%d) has completed %d sweeps, want %d",
				sh.s, sh.bi, sh.bj, bi, bj, got, want)
		}
	}
	run := func(sh *stencilShell, w int) {
		s := int32(sh.s)
		check(sh, sh.bi, sh.bj, s)
		check(sh, sh.bi-1, sh.bj, s+1)
		check(sh, sh.bi, sh.bj-1, s+1)
		check(sh, sh.bi+1, sh.bj, s)
		check(sh, sh.bi, sh.bj+1, s)
		swept[sh.bi][sh.bj].Add(1)
		sys.Unregister(&sh.node, w)
		if sh.node.Unpin() == 0 { // completeOne
			recycle(&sh.node)
		}
		executed.Add(1)
	}

	var wg sync.WaitGroup
	const total = sweeps * nb * nb
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for executed.Load() < total && !stop.Load() {
				mu.Lock()
				var sh *stencilShell
				if n := len(ready); n > 0 {
					i := r.Intn(n)
					sh, ready[i] = ready[i], ready[n-1]
					ready = ready[:n-1]
				}
				mu.Unlock()
				if sh == nil {
					idle()
					continue
				}
				run(sh, w)
			}
		}(w)
	}

	var root Node
	var specs []AccessSpec
	registered := 0
	addr := func(bi, bj int) unsafe.Pointer { return unsafe.Pointer(&cells[bi][bj]) }
register:
	for s := 0; s < sweeps; s++ {
		for bi := 0; bi < nb; bi++ {
			for bj := 0; bj < nb; bj++ {
				if stop.Load() {
					break register
				}
				mu.Lock()
				var sh *stencilShell
				if n := len(free); n > 0 {
					sh, free = free[n-1], free[:n-1]
				}
				mu.Unlock()
				if sh == nil {
					sh = &stencilShell{}
					sh.node.Payload = sh
					made++
				}
				// Stay a row or two ahead of the executors, no more, so
				// that most shells come from the free list.
				for registered-int(executed.Load()) > 2*nb && !stop.Load() {
					idle()
				}
				registered++
				sh.pooled.Store(false)
				sh.s, sh.bi, sh.bj = s, bi, bj
				specs = stencil5Specs(specs, addr, nb, bi, bj)
				sh.node.Pin()
				acc := sh.node.InitAccesses(len(specs))
				for i := range specs {
					acc[i].Init(&sh.node, specs[i])
				}
				if len(specs) <= InlineAccessCap && &acc[0] != &sh.node.inline[0] {
					t.Fatalf("%d accesses left the inline array", len(specs))
				}
				sys.Register(&root, &sh.node, workers)
			}
		}
	}
	wg.Wait()
	if !stop.Load() && executed.Load() != total {
		t.Fatalf("executed %d of %d tasks", executed.Load(), total)
	}
	if made == total {
		t.Fatal("no shell was ever recycled: the test did not exercise reuse")
	}
	t.Logf("%d tasks through %d shells", total, made)
}
