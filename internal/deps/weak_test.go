package deps

import "testing"

func TestWeakAccessDoesNotBlockTask(t *testing.T) {
	var x float64
	for _, kind := range systems() {
		te := newExec(kind, 2)
		root := mkTask("root", nil, nil)
		// A strong writer holds the chain...
		w := mkTask("w", []AccessSpec{{Addr: addrOf(&x), Type: ReadWrite}}, nil)
		te.spawn(root, w, 0)
		// ...and a weak-inout task behind it must still be immediately
		// ready (it does not touch x itself).
		weak := mkTask("weak", []AccessSpec{{Addr: addrOf(&x), Type: ReadWrite, Weak: true}}, nil)
		te.spawn(root, weak, 0)
		te.mu.Lock()
		n := len(te.ready)
		te.mu.Unlock()
		if n != 2 {
			t.Fatalf("%s: weak task blocked behind writer (ready=%d)", kind, n)
		}
	}
}

func TestWeakAccessAnchorsChildren(t *testing.T) {
	// The OmpSs-2 pattern: parent declares weakinout(x) and spawns a
	// child with a strong inout(x); a sibling successor with inout(x)
	// must wait for the child even though the parent never blocks.
	var x float64
	for _, kind := range systems() {
		x = 0
		te := newExec(kind, 2)
		root := mkTask("root", nil, nil)
		spec := []AccessSpec{{Addr: addrOf(&x), Type: ReadWrite}}
		weakSpecs := []AccessSpec{{Addr: addrOf(&x), Type: ReadWrite, Weak: true}}
		child := mkTask("child", spec, func(*ttask) { x = 7 })
		parent := mkTask("parent", weakSpecs, func(self *ttask) {
			te.spawn(self, child, 0)
		})
		succ := mkTask("succ", spec, func(*ttask) { x *= 10 })
		te.spawn(root, parent, 0)
		te.spawn(root, succ, 0)

		// Parent must be ready immediately (weak), successor must not.
		pt := te.pop(nil)
		if pt != parent {
			t.Fatalf("%s: expected parent ready first", kind)
		}
		parent.body(parent)
		te.sys.Unregister(&parent.node, 0)
		te.mu.Lock()
		for _, r := range te.ready {
			if r == succ {
				t.Fatalf("%s: successor ready before weak parent's child ran", kind)
			}
		}
		te.mu.Unlock()
		order := te.runAll(nil, 0)
		if x != 70 {
			t.Fatalf("%s: x = %v, want 70 (order %v)", kind, x, order)
		}
	}
}

func TestWeakAccessChildWaitsForPredecessor(t *testing.T) {
	// A weak parent runs at once, but the strong child it spawns on the
	// same address must still wait for the parent's strong predecessor.
	var x float64
	for _, kind := range systems() {
		te := newExec(kind, 2)
		root := mkTask("root", nil, nil)
		strong := []AccessSpec{{Addr: addrOf(&x), Type: ReadWrite}}
		weak := []AccessSpec{{Addr: addrOf(&x), Type: ReadWrite, Weak: true}}
		w := mkTask("w", strong, nil)
		child := mkTask("child", strong, nil)
		parent := mkTask("parent", weak, func(self *ttask) { te.spawn(self, child, 0) })
		te.spawn(root, w, 0)
		te.spawn(root, parent, 0)
		isReady := func(want *ttask) bool {
			te.mu.Lock()
			defer te.mu.Unlock()
			for _, r := range te.ready {
				if r == want {
					return true
				}
			}
			return false
		}
		if !isReady(w) || !isReady(parent) {
			t.Fatalf("%s: writer and weak parent must both be ready", kind)
		}
		parent.body(parent)
		if isReady(child) {
			t.Fatalf("%s: child ready while the parent's predecessor holds x", kind)
		}
		te.sys.Unregister(&w.node, 0)
		if !isReady(child) {
			t.Fatalf("%s: child not ready after the predecessor released x", kind)
		}
	}
}

func TestWeakChainOfParents(t *testing.T) {
	// Two weak levels deep: weak grandparent -> weak parent -> strong
	// leaf; a successor after the grandparent waits for the leaf.
	var x float64
	for _, kind := range systems() {
		x = 1
		te := newExec(kind, 2)
		root := mkTask("root", nil, nil)
		strong := []AccessSpec{{Addr: addrOf(&x), Type: ReadWrite}}
		weak := []AccessSpec{{Addr: addrOf(&x), Type: ReadWrite, Weak: true}}
		leaf := mkTask("leaf", strong, func(*ttask) { x += 5 })
		mid := mkTask("mid", weak, func(self *ttask) { te.spawn(self, leaf, 0) })
		top := mkTask("top", weak, func(self *ttask) { te.spawn(self, mid, 0) })
		succ := mkTask("succ", strong, func(*ttask) { x *= 3 })
		te.spawn(root, top, 0)
		te.spawn(root, succ, 0)
		te.runAll(nil, 0)
		if x != 18 { // (1+5)*3
			t.Fatalf("%s: x = %v, want 18", kind, x)
		}
	}
}

func TestWeakReadAllowsConcurrentStrongReads(t *testing.T) {
	// weakin must behave as a read in the chain: it neither blocks nor
	// is blocked by other reads.
	var x float64
	for _, kind := range systems() {
		te := newExec(kind, 2)
		root := mkTask("root", nil, nil)
		te.spawn(root, mkTask("w", []AccessSpec{{Addr: addrOf(&x), Type: Write}}, nil), 0)
		te.spawn(root, mkTask("r", []AccessSpec{{Addr: addrOf(&x), Type: Read}}, nil), 0)
		wk := mkTask("weak", []AccessSpec{{Addr: addrOf(&x), Type: Read, Weak: true}}, nil)
		te.spawn(root, wk, 0)
		te.mu.Lock()
		n := len(te.ready)
		te.mu.Unlock()
		// Writer ready + weak ready; strong read still blocked.
		if n != 2 {
			t.Fatalf("%s: ready=%d, want 2 (writer + weak)", kind, n)
		}
	}
}
