package deps

import (
	"testing"
	"unsafe"
)

// rootHarness drives root registrations the way the runtime does, on
// one goroutine: a lease around each RegisterRoot, a shell guard per
// node, and nodes recycled through a free list once their last pin
// drops — at completion, or (wait-free) in the quiescence callback.
type rootHarness struct {
	d        *RootDomain
	sys      System
	ready    map[*Node]bool
	free     []*Node
	fresh    int // nodes ever allocated
	quiesced int // recycles by the quiescence callback
}

func newRootHarness(kind string, shards int) *rootHarness {
	h := &rootHarness{d: NewRootDomain(shards), ready: map[*Node]bool{}}
	ready := func(n *Node, _ int) { h.ready[n] = true }
	if kind == "waitfree" {
		wf := NewWaitFree(ready, h.d.Shards())
		wf.OnQuiescent(func(n *Node, _ int) {
			h.quiesced++
			h.recycle(n)
		})
		h.sys = wf
	} else {
		h.sys = NewLocked(ready, h.d.Shards())
	}
	return h
}

func (h *rootHarness) recycle(n *Node) {
	n.Reset()
	h.free = append(h.free, n)
}

// node takes a shell, guards it and declares its accesses.
func (h *rootHarness) node(specs ...AccessSpec) *Node {
	var n *Node
	if k := len(h.free); k > 0 {
		n, h.free = h.free[k-1], h.free[:k-1]
	} else {
		n = &Node{}
		n.Payload = n
		h.fresh++
	}
	n.Pin() // the shell guard
	acc := n.InitAccesses(len(specs))
	for i := range specs {
		acc[i].Init(n, specs[i])
	}
	return n
}

// submit registers a root task under a lease of its shards.
func (h *rootHarness) submit(specs ...AccessSpec) *Node {
	n := h.node(specs...)
	lease := h.d.Acquire(specs)
	h.sys.RegisterRoot(h.d, n, lease.Slot())
	lease.Release()
	return n
}

// complete runs a ready task's release and drops its shell guard.
func (h *rootHarness) complete(t *testing.T, n *Node) {
	t.Helper()
	if !h.ready[n] {
		t.Fatal("completing a task that is not ready")
	}
	delete(h.ready, n)
	h.sys.Unregister(n, 0)
	h.release(n)
}

// release drops the shell guard, as the runtime's completeOne does.
func (h *rootHarness) release(n *Node) {
	if n.Unpin() == 0 {
		h.recycle(n)
	}
}

// tails returns each shard map's entry count.
func (h *rootHarness) tails() []int {
	out := make([]int, len(h.d.shards))
	for i := range h.d.shards {
		sh := &h.d.shards[i]
		out[i] = len(sh.node.domain) + len(sh.node.ldomain)
	}
	return out
}

// installed reports whether addr's chain is still in its shard's map.
func (h *rootHarness) installed(addr unsafe.Pointer) bool {
	sh := h.d.shard(addr)
	_, wf := sh.node.domain[addr]
	_, l := sh.node.ldomain[addr]
	return wf || l
}

// TestRootDomainSweepsReleasedTails registers and completes roots on
// distinct addresses, window of them unreleased at a time. Without the
// registrar's sweep every address would stay a shard-map tail — and,
// wait-free, keep its shell pinned — forever. With it each shard map
// stays within twice the unreleased tails plus the sweep floor, every
// shell not still installed as a tail has been recycled by its
// quiescence callback, and fresh shells are bounded by what the maps
// may hold, not by the submission count.
func TestRootDomainSweepsReleasedTails(t *testing.T) {
	const window = 32
	n := 100_000
	if testing.Short() {
		n = 20_000
	}
	cells := make([]float64, n)
	for _, kind := range systems() {
		t.Run(kind, func(t *testing.T) {
			h := newRootHarness(kind, 8)
			inflight := make([]*Node, 0, window)
			for i := range cells {
				inflight = append(inflight, h.submit(AccessSpec{Addr: unsafe.Pointer(&cells[i]), Type: ReadWrite}))
				for s, size := range h.tails() {
					if size > 2*window+sweepFloor {
						t.Fatalf("after %d roots shard %d maps %d addresses, want at most %d", i+1, s, size, 2*window+sweepFloor)
					}
				}
				if len(inflight) == window || i == n-1 {
					for _, r := range inflight {
						h.complete(t, r)
					}
					inflight = inflight[:0]
				}
			}
			installed := 0
			for _, size := range h.tails() {
				installed += size
			}
			if kind == "waitfree" && h.quiesced+installed != n {
				t.Errorf("%d shells quiesced and %d still installed as tails, want %d together", h.quiesced, installed, n)
			}
			if bound := h.d.Shards()*(2*window+sweepFloor) + window; h.fresh > bound {
				t.Errorf("%d fresh nodes for %d roots, want at most %d", h.fresh, n, bound)
			}
		})
	}
}

// TestRootDomainSweepReleasedTailChainsSuccessor: a tail that has
// released but is still installed (no sweep ran yet) chains its
// successor exactly as before — satisfied at once — and so does the
// fresh chain a later root starts once the sweep deleted the tail.
func TestRootDomainSweepReleasedTailChainsSuccessor(t *testing.T) {
	var x float64
	cells := make([]float64, 2*sweepFloor)
	pairs := [][2]AccessType{{Write, Read}, {Read, Write}, {ReadWrite, ReadWrite}, {Read, Read}}
	for _, kind := range systems() {
		for _, p := range pairs {
			t.Run(kind+"/"+p[0].String()+"-"+p[1].String(), func(t *testing.T) {
				h := newRootHarness(kind, 1)
				on := func(typ AccessType) AccessSpec { return AccessSpec{Addr: unsafe.Pointer(&x), Type: typ} }
				h.complete(t, h.submit(on(p[0])))
				if !h.installed(unsafe.Pointer(&x)) {
					t.Fatal("the released tail was deleted below the sweep floor")
				}
				b := h.submit(on(p[1]))
				if !h.ready[b] {
					t.Fatal("successor of a released, unswept tail is not ready")
				}
				c := h.submit(on(ReadWrite))
				if h.ready[c] {
					t.Fatal("writer behind an unreleased tail is ready")
				}
				h.complete(t, b)
				h.complete(t, c)

				for i := range cells {
					h.complete(t, h.submit(AccessSpec{Addr: unsafe.Pointer(&cells[i]), Type: ReadWrite}))
				}
				if h.installed(unsafe.Pointer(&x)) {
					t.Fatal("no sweep deleted the released tail")
				}
				d := h.submit(on(p[0]))
				if !h.ready[d] {
					t.Fatal("a root on a swept address is not ready")
				}
				h.complete(t, d)
			})
		}
	}
}

// TestRootDomainSweepKeepsUnreleasedAndGroupTails: a sweep deletes
// only released plain tails. A running root, a root whose body finished
// while its child still runs, and reduction and commutative runs stay
// installed through any number of sweeps, and their successors still
// chain behind them.
func TestRootDomainSweepKeepsUnreleasedAndGroupTails(t *testing.T) {
	var held, nested, red, com float64
	cells := make([]float64, 3*sweepFloor)
	addrs := []unsafe.Pointer{unsafe.Pointer(&held), unsafe.Pointer(&nested), unsafe.Pointer(&red), unsafe.Pointer(&com)}
	inout := func(p unsafe.Pointer) AccessSpec { return AccessSpec{Addr: p, Type: ReadWrite} }
	for _, kind := range systems() {
		t.Run(kind, func(t *testing.T) {
			h := newRootHarness(kind, 1)
			running := h.submit(inout(addrs[0]))
			parent := h.submit(inout(addrs[1]))
			child := h.node(inout(addrs[1]))
			h.sys.Register(parent, child, 0)
			delete(h.ready, parent)
			h.sys.Unregister(parent, 0) // body returned, child still live
			h.complete(t, h.submit(AccessSpec{Addr: addrs[2], Len: 1, Type: Reduction, Op: OpSum}))
			h.complete(t, h.submit(AccessSpec{Addr: addrs[3], Type: Commutative}))

			for i := range cells {
				h.complete(t, h.submit(inout(unsafe.Pointer(&cells[i]))))
			}
			for i, a := range addrs {
				if !h.installed(a) {
					t.Fatalf("tail %d was swept", i)
				}
			}
			if size := h.tails()[0]; size > 2*len(addrs)+sweepFloor {
				t.Fatalf("shard maps %d addresses after the sweeps, want at most %d", size, 2*len(addrs)+sweepFloor)
			}

			h.complete(t, running)
			h.complete(t, child)
			h.release(parent)
			for i, a := range addrs {
				next := h.submit(inout(a))
				if !h.ready[next] {
					t.Fatalf("successor of kept tail %d is not ready once it released", i)
				}
				h.complete(t, next)
			}
		})
	}
}
