package deps

import (
	"testing"
	"unsafe"
)

// Tests for the references a stencil-shaped task does not pay for: no
// predecessor slot before the runtime has a donor, no child guard on a
// leaf, and — beside the held pushes of heldpush_test.go — the release
// rules of reduction runs that let a run head's satisfiability travel
// without a pin.

// TestStencilNoDonorRecordsNoPreds: until System.RecordPreds, neither
// dependency system records a chain predecessor, so a stencil run on a
// runtime without a donor leaves every node's slots empty and
// VisitPreds visits nothing. The sweep registered after RecordPreds
// records them, the sensitivity half: every interior task of it has a
// plain predecessor on its own tile.
func TestStencilNoDonorRecordsNoPreds(t *testing.T) {
	const nb = 4
	var cells [nb][nb]float64
	addr := func(bi, bj int) unsafe.Pointer { return unsafe.Pointer(&cells[bi][bj]) }
	for _, kind := range systems() {
		var sys System
		switch kind {
		case "waitfree":
			sys = NewWaitFree(func(*Node, int) {}, 1)
		default:
			sys = NewLocked(func(*Node, int) {}, 1)
		}
		var root Node
		var specs []AccessSpec
		sweep := func() []*Node {
			var nodes []*Node
			for bi := 0; bi < nb; bi++ {
				for bj := 0; bj < nb; bj++ {
					specs = stencil5Specs(specs, addr, nb, bi, bj)
					n := pinnedNode(specs...)
					sys.Register(&root, n, 0)
					nodes = append(nodes, n)
				}
			}
			return nodes
		}
		visits := func(n *Node) int {
			k := 0
			n.VisitPreds(func(*Node) { k++ })
			return k
		}
		for s := 0; s < 3; s++ {
			for _, n := range sweep() {
				if n.npreds != 0 || visits(n) != 0 {
					t.Fatalf("%s: sweep %d: a node recorded %d predecessors (%d visited) with no donor", kind, s, n.npreds, visits(n))
				}
			}
		}
		sys.RecordPreds()
		for i, n := range sweep() {
			if n.npreds == 0 || visits(n) == 0 {
				t.Fatalf("%s: task %d of the sweep after RecordPreds recorded no predecessor", kind, i)
			}
		}
	}
}

// TestHeldPushRunHeadHoldsParentAccess: a reduction run's head reports
// its release to its run and to the parent access it nests under only
// once satisfied, like every other access. The parent's forward to the
// head travels unpinned (pushSat), and the forwarding thread reads the
// parent's child link after its own delivery has landed: that is safe
// only because the parent cannot collect children-done before the
// forward has reached the head. Here r0 → p are two reads of x, so p
// runs on its early read forward while its write satisfiability is
// still owed; p's body starts a reduction run on x under its access.
// The run's member finishes at once, then p finishes: p's access must
// still lack children-done, and gain it — and release — only when r0's
// release has carried write satisfiability through p to the head.
func TestHeldPushRunHeadHoldsParentAccess(t *testing.T) {
	var x [1]float64
	rd := AccessSpec{Addr: unsafe.Pointer(&x[0]), Type: Read}
	var ready []*Node
	sys := NewWaitFree(func(n *Node, _ int) { ready = append(ready, n) }, 1)
	var root Node
	r0, p := pinnedNode(rd), pinnedNode(rd)
	sys.Register(&root, r0, 0)
	sys.Register(&root, p, 0)
	if len(ready) != 2 {
		t.Fatalf("%d tasks ready, want r0 and p (reads run together)", len(ready))
	}
	c := pinnedNode(AccessSpec{Addr: unsafe.Pointer(&x[0]), Len: 1, Type: Reduction})
	sys.Register(p, c, 0)
	if len(ready) != 3 || ready[2] != c {
		t.Fatal("the reduction child did not run eagerly")
	}
	pa, head := &p.Accesses[0], &c.Accesses[0]
	sys.Unregister(c, 0)
	sys.Unregister(p, 0)
	if st := pa.state.Load(); !st.Has(flagFinished) || st.Has(flagChildrenDone) {
		t.Fatalf("parent access in state %b with its run's head unsatisfied: want finished without children-done", st)
	}
	if st := head.state.Load(); st.Has(flagWriteSat) {
		t.Fatalf("run head in state %b before the parent's write satisfiability", st)
	}
	sys.Unregister(r0, 0)
	if st := head.state.Load(); !st.Has(flagsReleased) {
		t.Fatalf("run head in state %b after r0's release, want released", st)
	}
	if st := pa.state.Load(); !st.Has(flagsReleased) {
		t.Fatalf("parent access in state %b after its run's head released, want released", st)
	}
	if g := pa.childGuard.Load(); g != -1 {
		t.Fatalf("parent access child guard %d, want -1", g)
	}
}

// TestHeldPushReductionMemberRecycledEarly: a plain reduction member is
// owed nothing after its own finished and children-done — its run's
// satisfiability goes to the head, and a broadcast to commutative
// members only — so it drops its pin then, and its shell may be reused
// before the run is satisfied. Here the member's shell is recycled and
// reused at once (LIFO, as the runtime's allocator does) by a task on
// another address, queued behind a writer there; the run is satisfied
// afterwards, when the writer ahead of it releases. The reused shell
// must see none of the run's traffic — a broadcast that reached
// reduction members would satisfy it early — and the run must still
// combine and release to its successor.
func TestHeldPushReductionMemberRecycledEarly(t *testing.T) {
	var x [1]float64
	var y float64
	ready := map[*Node]int{}
	sys := NewWaitFree(func(n *Node, _ int) { ready[n]++ }, 1)
	var free []*Node
	recycled := map[*Node]int{}
	sys.OnQuiescent(func(n *Node, _ int) {
		recycled[n]++
		n.Reset()
		free = append(free, n)
	})
	complete := func(n *Node) {
		sys.Unregister(n, 0)
		if n.Unpin() == 0 { // completeOne's drop of the shell guard
			recycled[n]++
			n.Reset()
			free = append(free, n)
		}
	}
	var root Node
	xAddr := unsafe.Pointer(&x[0])
	red := AccessSpec{Addr: xAddr, Len: 1, Type: Reduction}
	w := pinnedNode(AccessSpec{Addr: xAddr, Type: ReadWrite})
	head, member := pinnedNode(red), pinnedNode(red)
	reader := pinnedNode(AccessSpec{Addr: xAddr, Type: Read})
	for _, n := range []*Node{w, head, member, reader} {
		sys.Register(&root, n, 0)
	}
	if ready[reader] != 0 || ready[head] != 1 || ready[member] != 1 {
		t.Fatal("want both reduction members ready eagerly and the reader blocked")
	}
	member.ReductionBuffer(xAddr, 0)[0] += 2
	complete(member)
	if recycled[member] != 1 {
		t.Fatalf("finished reduction member recycled %d times before its run was satisfied, want once", recycled[member])
	}
	// Reuse the shell at once for an unrelated task, queued behind a
	// writer of its own address so that stray satisfiability would show.
	yw := pinnedNode(AccessSpec{Addr: unsafe.Pointer(&y), Type: ReadWrite})
	sys.Register(&root, yw, 0)
	reused := free[len(free)-1]
	free = free[:len(free)-1]
	ready[reused] = 0
	reused.Pin()
	reused.InitAccesses(1)[0].Init(reused, AccessSpec{Addr: unsafe.Pointer(&y), Type: ReadWrite})
	sys.Register(&root, reused, 0)
	before := reused.Accesses[0].state.Load()

	head.ReductionBuffer(xAddr, 0)[0] += 3
	complete(head)
	x[0] = 10
	complete(w) // satisfies the run: it combines and releases to the reader
	if st := reused.Accesses[0].state.Load(); st != before {
		t.Fatalf("reused shell's access went from %b to %b while the run was satisfied", before, st)
	}
	if ready[reused] != 0 {
		t.Fatalf("reused shell's task readied %d times behind its own writer, want none", ready[reused])
	}
	complete(yw)
	if ready[reused] != 1 {
		t.Fatalf("reused shell's task readied %d times after its writer, want once", ready[reused])
	}
	if ready[reader] != 1 || x[0] != 15 {
		t.Fatalf("reader readied %d times with x = %v, want once with 15", ready[reader], x[0])
	}
	if recycled[head] != 1 {
		t.Fatalf("run head recycled %d times after the run released, want once", recycled[head])
	}
}

// TestReductionUnderWeakParentCombinesBeforeSuccessor: a reduction run
// nested under a parent access combines before that access releases to
// its successor. The parent p declares a weak inout on x behind a
// writer w, so p runs — and its reduction child runs, finishes, and p
// finishes — before x is satisfied. When w releases, p's access gains
// its satisfiability and, with its children done, would release at
// once: had the run's head reported its release before being
// satisfied, the successor's satisfiability would be queued beside the
// forwards to the head, and the successor readied before the run
// combined into x.
func TestReductionUnderWeakParentCombinesBeforeSuccessor(t *testing.T) {
	for _, kind := range systems() {
		var x [1]float64
		xAddr := unsafe.Pointer(&x[0])
		var sys System
		var sawX []float64
		succ := pinnedNode(AccessSpec{Addr: xAddr, Type: Read})
		ready := func(n *Node, _ int) {
			if n == succ {
				sawX = append(sawX, x[0])
			}
		}
		switch kind {
		case "waitfree":
			sys = NewWaitFree(ready, 1)
		default:
			sys = NewLocked(ready, 1)
		}
		var root Node
		w := pinnedNode(AccessSpec{Addr: xAddr, Type: ReadWrite})
		p := pinnedNode(AccessSpec{Addr: xAddr, Type: ReadWrite, Weak: true})
		for _, n := range []*Node{w, p, succ} {
			sys.Register(&root, n, 0)
		}
		c := pinnedNode(AccessSpec{Addr: xAddr, Len: 1, Type: Reduction})
		sys.Register(p, c, 0)
		c.ReductionBuffer(xAddr, 0)[0] += 5
		sys.Unregister(c, 0)
		sys.Unregister(p, 0)
		if len(sawX) != 0 {
			t.Fatalf("%s: successor ready before the writer ahead of its parent released", kind)
		}
		x[0] = 1 // the writer's body
		sys.Unregister(w, 0)
		if len(sawX) != 1 || sawX[0] != 6 {
			t.Fatalf("%s: successor readied %d times, seeing x = %v; want once, after the run combined (6)", kind, len(sawX), sawX)
		}
	}
}

// TestHeldPushWeakTargetKeepsPin: satisfiability to a weak access keeps
// the message pin, and to a strong one travels held. A weak access does
// not gate its task, which may have finished before the access is
// satisfied: once its read satisfiability lands, another thread's write
// satisfiability can release it while the delivering thread still
// forwards to its read successor — a window only the pin covers. Here
// the writer w releases to a weak read r (whose own task already
// finished) and, on a second chain, to a strong read; the queued
// messages are inspected before they are delivered.
func TestHeldPushWeakTargetKeepsPin(t *testing.T) {
	var x, y float64
	sys := NewWaitFree(func(*Node, int) {}, 1)
	var root Node
	w := pinnedNode(AccessSpec{Addr: unsafe.Pointer(&x), Type: ReadWrite}, AccessSpec{Addr: unsafe.Pointer(&y), Type: ReadWrite})
	weak := pinnedNode(AccessSpec{Addr: unsafe.Pointer(&x), Type: Read, Weak: true})
	strong := pinnedNode(AccessSpec{Addr: unsafe.Pointer(&y), Type: Read})
	for _, n := range []*Node{w, weak, strong} {
		sys.Register(&root, n, 0)
	}
	sys.Unregister(weak, 0) // the weak task ran at once and finished
	weakPins, strongPins := weak.pins.Load(), strong.pins.Load()

	mb := &sys.mbs[0].mb
	for i := range w.Accesses {
		mb.pushHeld(&w.Accesses[i], flagFinished|flagChildrenDone)
	}
	held := map[*Node]bool{}
	for mb.Len() > 0 {
		m, _ := mb.Pop()
		if to := m.To.node; to == weak || to == strong {
			held[to] = m.Bits&msgHeld != 0
		}
		// Deliver by hand, as drain does, noting how w's releases
		// queued the messages to the two reads.
		sys.deliver(m.To, m.Bits&^msgHeld, mb, 0)
		if m.Bits&msgHeld == 0 {
			if m.To.node == weak && weak.pins.Load() != weakPins+1 {
				t.Fatalf("weak target holds %d pins with its message queued, want %d", weak.pins.Load(), weakPins+1)
			}
			sys.unpin(m.To.node, 0)
		}
	}
	if h, ok := held[weak]; !ok || h {
		t.Fatalf("satisfiability to the weak access: queued %v, held %v; want a pinned message", ok, h)
	}
	if h, ok := held[strong]; !ok || !h {
		t.Fatalf("satisfiability to the strong access: queued %v, held %v; want a held message", ok, h)
	}
	if strong.pins.Load() != strongPins {
		t.Fatalf("strong target's pins moved from %d to %d", strongPins, strong.pins.Load())
	}
}
