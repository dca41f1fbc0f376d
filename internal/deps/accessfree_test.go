package deps

import "testing"

// TestAccessFreeReadyWithoutMailbox: a node with no accesses is ready
// inside its registration, on the registering index, with no pending
// guard left behind, and neither its registration nor its unregistration
// drains the index's mailbox: a message queued there beforehand is
// still queued after them. Nested and root registrations alike.
func TestAccessFreeReadyWithoutMailbox(t *testing.T) {
	const worker = 1
	var ready []*Node
	wf := NewWaitFree(func(n *Node, w int) {
		if w != worker {
			t.Errorf("ready on index %d, want %d", w, worker)
		}
		ready = append(ready, n)
	}, 2)
	d := NewRootDomain(2)

	// The queued message targets an access of a node registered nowhere;
	// delivering it would be visible as the message's absence.
	var x float64
	var other Node
	acc := other.InitAccesses(1)
	acc[0].Init(&other, AccessSpec{Addr: addrOf(&x), Type: ReadWrite})
	mb := &wf.mbs[worker].mb
	mb.pushHeld(&acc[0], flagReadSat)

	var parent, nested, root Node
	nested.Payload, root.Payload = &nested, &root
	wf.Register(&parent, &nested, worker)
	wf.RegisterRoot(d, &root, worker)
	if len(ready) != 2 || ready[0] != &nested || ready[1] != &root {
		t.Fatalf("ready = %v, want the nested node then the root, each once, during registration", ready)
	}
	for _, n := range []*Node{&nested, &root} {
		if p := n.pending.Load(); p != 0 {
			t.Fatalf("pending = %d after an access-free registration, want 0", p)
		}
		wf.Unregister(n, worker)
	}
	m, ok := mb.Pop()
	if !ok || m.To != &acc[0] {
		t.Fatal("an access-free registration or unregistration drained the mailbox")
	}
	if _, ok := mb.Pop(); ok {
		t.Fatal("an access-free registration or unregistration queued a message")
	}
	if len(ready) != 2 {
		t.Fatalf("%d ready calls, want 2", len(ready))
	}
}

// TestAccessFreeParentClosesDomain: a parent with no accesses whose
// children registered chains in its domain still unregisters it in
// full: the chain tails' pins are dropped, so every child's shell is
// recycled by the quiescence callback once the parent unregisters, and
// not before.
func TestAccessFreeParentClosesDomain(t *testing.T) {
	var x, y float64
	var ready []*Node
	recycled := map[*Node]bool{}
	wf := NewWaitFree(func(n *Node, _ int) { ready = append(ready, n) }, 1)
	wf.OnQuiescent(func(n *Node, _ int) { recycled[n] = true })

	node := func(specs ...AccessSpec) *Node {
		n := &Node{}
		n.Payload = n
		n.Pin() // the shell guard, dropped at completion
		acc := n.InitAccesses(len(specs))
		for i := range specs {
			acc[i].Init(n, specs[i])
		}
		return n
	}
	// complete is the runtime's completion: unregister, then drop the
	// shell guard, recycling at once when nothing else pins the node.
	complete := func(n *Node) {
		wf.Unregister(n, 0)
		if n.Unpin() == 0 {
			recycled[n] = true
		}
	}

	var root Node
	parent := node()
	wf.Register(&root, parent, 0)
	children := []*Node{
		node(AccessSpec{Addr: addrOf(&x), Type: ReadWrite}),
		node(AccessSpec{Addr: addrOf(&x), Type: Read}),
		node(AccessSpec{Addr: addrOf(&y), Type: ReadWrite}),
	}
	for _, c := range children {
		wf.Register(parent, c, 0)
	}
	if len(parent.domain) != 2 {
		t.Fatalf("parent's domain holds %d chains, want 2", len(parent.domain))
	}
	// Run every ready child until none is left (the reader of x becomes
	// ready when the writer completes).
	for done := 0; done < len(children); done++ {
		var n *Node
		for i := len(ready) - 1; i >= 0; i-- {
			if ready[i] != parent {
				n, ready = ready[i], append(ready[:i], ready[i+1:]...)
				break
			}
		}
		if n == nil {
			t.Fatalf("%d of %d children ran, none is ready", done, len(children))
		}
		complete(n)
	}
	tails := 0
	for _, c := range children {
		if !recycled[c] {
			tails++
		}
	}
	if tails != 2 {
		t.Fatalf("%d children held before the parent unregistered, want the 2 chain tails", tails)
	}
	complete(parent)
	for i, c := range children {
		if !recycled[c] {
			t.Fatalf("child %d is still pinned (%d pins) after its access-free parent unregistered", i, c.pins.Load())
		}
	}
	if !recycled[parent] {
		t.Fatalf("the parent is still pinned (%d pins)", parent.pins.Load())
	}
}

// TestAccessFreeReuseKeepsStalePredRejected: Reset moves a node's
// generation only after an incarnation that had accesses, because only
// such a node can be a recorded predecessor. A slot recorded while a
// shell had accesses must still be rejected after the shell was reused
// by an access-free task — which leaves the generation where it is —
// and then reused again with accesses. Both dependency systems; the
// shells are completed as the runtime's completeOne does.
func TestAccessFreeReuseKeepsStalePredRejected(t *testing.T) {
	var x, y float64
	for _, kind := range []string{"wait-free", "locked"} {
		t.Run(kind, func(t *testing.T) {
			recycled := map[*Node]bool{}
			ready := func(*Node, int) {}
			var sys System = NewLocked(ready, 1)
			if kind == "wait-free" {
				wf := NewWaitFree(ready, 1)
				wf.OnQuiescent(func(n *Node, _ int) { n.Reset(); recycled[n] = true })
				sys = wf
			}
			sys.RecordPreds()
			var root Node
			// start is newTask's half: only a task with accesses takes the
			// shell guard.
			start := func(n *Node, specs ...AccessSpec) {
				if len(specs) > 0 {
					n.Pin()
					acc := n.InitAccesses(len(specs))
					for i := range specs {
						acc[i].Init(n, specs[i])
					}
				}
				sys.Register(&root, n, 0)
			}
			complete := func(n *Node) {
				sys.Unregister(n, 0)
				if len(n.Accesses) == 0 || n.Unpin() == 0 {
					n.Reset()
					recycled[n] = true
				}
			}
			p, s := &Node{}, &Node{}
			p.Payload, s.Payload = p, s
			onX := AccessSpec{Addr: addrOf(&x), Type: ReadWrite}
			start(p, onX)
			start(s, onX)
			visits := func() (k int) {
				s.VisitPreds(func(q *Node) {
					if q == p {
						k++
					}
				})
				return k
			}
			if k := visits(); k != 1 {
				t.Fatalf("the successor visits its predecessor %d times, want 1", k)
			}

			complete(p)
			if !recycled[p] {
				t.Fatal("the predecessor's shell was not recycled at its completion")
			}
			gen := p.gen.Load()
			delete(recycled, p)
			start(p) // an access-free task in the same shell
			complete(p)
			if !recycled[p] {
				t.Fatal("the access-free task's shell was not recycled at its completion")
			}
			if g := p.gen.Load(); g != gen {
				t.Errorf("an access-free incarnation moved the generation %d -> %d", gen, g)
			}
			start(p, AccessSpec{Addr: addrOf(&y), Type: ReadWrite})
			if k := visits(); k != 0 {
				t.Fatalf("a slot recorded two incarnations ago was visited %d times: stale predecessor accepted", k)
			}
			complete(p)
			complete(s)
		})
	}
}
