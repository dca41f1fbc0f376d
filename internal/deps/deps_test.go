package deps

import (
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

// texec is a miniature task executor for exercising a dependency system
// without the full runtime: tasks become ready via the callback and are
// run (body, then Unregister) by the test in a chosen order.
type texec struct {
	sys   System
	mu    sync.Mutex
	ready []*ttask
}

type ttask struct {
	node Node
	name string
	body func(self *ttask)
}

func newExec(kind string, workers int) *texec {
	te := &texec{}
	ready := func(n *Node, worker int) {
		t := n.Payload.(*ttask)
		te.mu.Lock()
		te.ready = append(te.ready, t)
		te.mu.Unlock()
	}
	switch kind {
	case "waitfree":
		te.sys = NewWaitFree(ready, workers)
	case "locked":
		te.sys = NewLocked(ready, workers)
	default:
		panic(kind)
	}
	return te
}

func mkTask(name string, specs []AccessSpec, body func(self *ttask)) *ttask {
	t := &ttask{name: name, body: body}
	t.node.Payload = t
	t.node.Accesses = make([]Access, len(specs))
	for i, s := range specs {
		t.node.Accesses[i].Init(&t.node, s)
	}
	return t
}

func (te *texec) spawn(parent *ttask, t *ttask, worker int) {
	te.sys.Register(&parent.node, &t.node, worker)
}

func (te *texec) pop(r *rand.Rand) *ttask {
	te.mu.Lock()
	defer te.mu.Unlock()
	if len(te.ready) == 0 {
		return nil
	}
	i := 0
	if r != nil {
		i = r.Intn(len(te.ready))
	}
	t := te.ready[i]
	te.ready[i] = te.ready[len(te.ready)-1]
	te.ready = te.ready[:len(te.ready)-1]
	return t
}

// runAll executes ready tasks (in random order if r != nil) until none
// remain, returning the names in execution order.
func (te *texec) runAll(r *rand.Rand, worker int) []string {
	var order []string
	for {
		t := te.pop(r)
		if t == nil {
			return order
		}
		order = append(order, t.name)
		if t.body != nil {
			t.body(t)
		}
		te.sys.Unregister(&t.node, worker)
	}
}

func addrOf(p *float64) unsafe.Pointer { return unsafe.Pointer(p) }

func systems() []string { return []string{"waitfree", "locked"} }

func TestNoDepsImmediatelyReady(t *testing.T) {
	for _, kind := range systems() {
		te := newExec(kind, 2)
		root := mkTask("root", nil, nil)
		te.spawn(root, mkTask("a", nil, nil), 0)
		if len(te.ready) != 1 {
			t.Fatalf("%s: task with no accesses not immediately ready", kind)
		}
	}
}

func TestWriteThenReadOrdering(t *testing.T) {
	var x float64
	for _, kind := range systems() {
		te := newExec(kind, 2)
		root := mkTask("root", nil, nil)
		w := mkTask("w", []AccessSpec{{Addr: addrOf(&x), Type: Write}}, nil)
		rd := mkTask("r", []AccessSpec{{Addr: addrOf(&x), Type: Read}}, nil)
		te.spawn(root, w, 0)
		te.spawn(root, rd, 0)
		if len(te.ready) != 1 || te.ready[0] != w {
			t.Fatalf("%s: expected only writer ready, have %d", kind, len(te.ready))
		}
		order := te.runAll(nil, 0)
		if len(order) != 2 || order[0] != "w" || order[1] != "r" {
			t.Fatalf("%s: order = %v", kind, order)
		}
	}
}

func TestConcurrentReads(t *testing.T) {
	var x float64
	for _, kind := range systems() {
		te := newExec(kind, 2)
		root := mkTask("root", nil, nil)
		w := mkTask("w", []AccessSpec{{Addr: addrOf(&x), Type: Write}}, nil)
		r1 := mkTask("r1", []AccessSpec{{Addr: addrOf(&x), Type: Read}}, nil)
		r2 := mkTask("r2", []AccessSpec{{Addr: addrOf(&x), Type: Read}}, nil)
		te.spawn(root, w, 0)
		te.spawn(root, r1, 0)
		te.spawn(root, r2, 0)
		// Run the writer only.
		wt := te.pop(nil)
		if wt != w {
			t.Fatalf("%s: first ready is %s", kind, wt.name)
		}
		te.sys.Unregister(&wt.node, 0)
		// Both readers must now be ready simultaneously.
		if len(te.ready) != 2 {
			t.Fatalf("%s: want both readers ready, have %d", kind, len(te.ready))
		}
	}
}

func TestReadersBlockWriter(t *testing.T) {
	var x float64
	for _, kind := range systems() {
		te := newExec(kind, 2)
		root := mkTask("root", nil, nil)
		r1 := mkTask("r1", []AccessSpec{{Addr: addrOf(&x), Type: Read}}, nil)
		r2 := mkTask("r2", []AccessSpec{{Addr: addrOf(&x), Type: Read}}, nil)
		w := mkTask("w", []AccessSpec{{Addr: addrOf(&x), Type: Write}}, nil)
		te.spawn(root, r1, 0)
		te.spawn(root, r2, 0)
		te.spawn(root, w, 0)
		if len(te.ready) != 2 {
			t.Fatalf("%s: want 2 readers ready, have %d", kind, len(te.ready))
		}
		// Finish r1 only: writer must stay blocked.
		te.sys.Unregister(&r1.node, 0)
		te.mu.Lock()
		n := len(te.ready)
		te.mu.Unlock()
		if n != 2 { // r1 popped? no — we did not pop; r1,r2 still queued
			t.Fatalf("%s: writer became ready with a reader outstanding", kind)
		}
		te.sys.Unregister(&r2.node, 0)
		te.mu.Lock()
		n = len(te.ready)
		te.mu.Unlock()
		if n != 3 {
			t.Fatalf("%s: writer not released after both readers, ready=%d", kind, n)
		}
	}
}

func TestWriterChainSequential(t *testing.T) {
	var x float64
	for _, kind := range systems() {
		te := newExec(kind, 2)
		root := mkTask("root", nil, nil)
		names := []string{"w0", "w1", "w2", "w3", "w4"}
		for _, nm := range names {
			te.spawn(root, mkTask(nm, []AccessSpec{{Addr: addrOf(&x), Type: ReadWrite}}, nil), 0)
		}
		order := te.runAll(rand.New(rand.NewSource(1)), 0)
		for i, nm := range names {
			if order[i] != nm {
				t.Fatalf("%s: order %v violates chain", kind, order)
			}
		}
	}
}

func TestNestedChildBlocksParentSuccessor(t *testing.T) {
	// Parent P(inout A) spawns child C(inout A) and finishes before C.
	// Sibling S(inout A) after P must wait for C: the cross-nesting
	// dependency of paper Fig. 1.
	var x float64
	for _, kind := range systems() {
		te := newExec(kind, 2)
		root := mkTask("root", nil, nil)
		spec := []AccessSpec{{Addr: addrOf(&x), Type: ReadWrite}}
		c := mkTask("c", spec, nil)
		p := mkTask("p", spec, func(self *ttask) {
			te.spawn(self, c, 0)
		})
		s := mkTask("s", spec, nil)
		te.spawn(root, p, 0)
		te.spawn(root, s, 0)

		pt := te.pop(nil)
		if pt != p {
			t.Fatalf("%s: expected parent first", kind)
		}
		p.body(p)
		te.sys.Unregister(&p.node, 0) // parent finishes; child still alive
		te.mu.Lock()
		readyNow := make([]*ttask, len(te.ready))
		copy(readyNow, te.ready)
		te.mu.Unlock()
		for _, rt := range readyNow {
			if rt == s {
				t.Fatalf("%s: sibling ready before child finished", kind)
			}
		}
		// Run the child; sibling must become ready.
		order := te.runAll(nil, 0)
		if len(order) != 2 || order[0] != "c" || order[1] != "s" {
			t.Fatalf("%s: order after parent = %v", kind, order)
		}
	}
}

func TestNestedGrandchildren(t *testing.T) {
	// Three levels: successor of the top task waits for the deepest one.
	var x float64
	for _, kind := range systems() {
		te := newExec(kind, 2)
		root := mkTask("root", nil, nil)
		spec := []AccessSpec{{Addr: addrOf(&x), Type: ReadWrite}}
		var order []string
		gc := mkTask("gc", spec, func(*ttask) { order = append(order, "gc") })
		c := mkTask("c", spec, func(self *ttask) {
			order = append(order, "c")
			te.spawn(self, gc, 0)
		})
		p := mkTask("p", spec, func(self *ttask) {
			order = append(order, "p")
			te.spawn(self, c, 0)
		})
		s := mkTask("s", spec, func(*ttask) { order = append(order, "s") })
		te.spawn(root, p, 0)
		te.spawn(root, s, 0)
		te.runAll(nil, 0)
		want := []string{"p", "c", "gc", "s"}
		if len(order) != 4 {
			t.Fatalf("%s: ran %v", kind, order)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("%s: order %v, want %v", kind, order, want)
			}
		}
	}
}

func TestReductionCombines(t *testing.T) {
	for _, kind := range systems() {
		target := make([]float64, 4)
		target[0] = 10 // initial value participates in the sum
		te := newExec(kind, 4)
		root := mkTask("root", nil, nil)
		spec := []AccessSpec{{Addr: addrOf(&target[0]), Len: 4, Type: Reduction, Op: OpSum}}
		for i := 0; i < 8; i++ {
			w := i % 3 // emulate different workers
			tk := mkTask("red", spec, func(self *ttask) {
				buf := self.node.ReductionBuffer(addrOf(&target[0]), w)
				for j := range buf {
					buf[j] += 1
				}
			})
			te.spawn(root, tk, 0)
		}
		te.runAll(rand.New(rand.NewSource(7)), 0)
		te.sys.CloseDomain(&root.node, 0)
		if target[0] != 18 { // 10 + 8
			t.Fatalf("%s: target[0] = %v, want 18", kind, target[0])
		}
		for j := 1; j < 4; j++ {
			if target[j] != 8 {
				t.Fatalf("%s: target[%d] = %v, want 8", kind, j, target[j])
			}
		}
	}
}

func TestReductionThenReaderSeesCombined(t *testing.T) {
	for _, kind := range systems() {
		target := []float64{0}
		te := newExec(kind, 2)
		root := mkTask("root", nil, nil)
		rspec := []AccessSpec{{Addr: addrOf(&target[0]), Len: 1, Type: Reduction, Op: OpSum}}
		var seen float64 = -1
		for i := 0; i < 4; i++ {
			tk := mkTask("red", rspec, func(self *ttask) {
				self.node.ReductionBuffer(addrOf(&target[0]), 0)[0] += 2
			})
			te.spawn(root, tk, 0)
		}
		reader := mkTask("reader", []AccessSpec{{Addr: addrOf(&target[0]), Type: Read}},
			func(*ttask) { seen = target[0] })
		te.spawn(root, reader, 0)
		te.runAll(rand.New(rand.NewSource(3)), 0)
		if seen != 8 {
			t.Fatalf("%s: reader saw %v, want 8 (combined)", kind, seen)
		}
	}
}

func TestReductionMax(t *testing.T) {
	for _, kind := range systems() {
		target := []float64{-100}
		te := newExec(kind, 2)
		root := mkTask("root", nil, nil)
		spec := []AccessSpec{{Addr: addrOf(&target[0]), Len: 1, Type: Reduction, Op: OpMax}}
		vals := []float64{3, 7, -2, 5}
		for _, v := range vals {
			v := v
			tk := mkTask("red", spec, func(self *ttask) {
				buf := self.node.ReductionBuffer(addrOf(&target[0]), 1)
				if v > buf[0] {
					buf[0] = v
				}
			})
			te.spawn(root, tk, 0)
		}
		te.runAll(nil, 0)
		te.sys.CloseDomain(&root.node, 0)
		if target[0] != 7 {
			t.Fatalf("%s: max = %v, want 7", kind, target[0])
		}
	}
}

func TestCommutativeMutualExclusionAndCompletion(t *testing.T) {
	var x float64
	for _, kind := range systems() {
		te := newExec(kind, 2)
		root := mkTask("root", nil, nil)
		spec := []AccessSpec{{Addr: addrOf(&x), Type: Commutative}}
		for i := 0; i < 5; i++ {
			te.spawn(root, mkTask("c", spec, nil), 0)
		}
		after := mkTask("after", []AccessSpec{{Addr: addrOf(&x), Type: ReadWrite}}, nil)
		te.spawn(root, after, 0)
		// All commutative tasks become ready together; tokens serialize.
		te.mu.Lock()
		n := len(te.ready)
		te.mu.Unlock()
		if n != 5 {
			t.Fatalf("%s: want 5 commutative ready, have %d", kind, n)
		}
		// Acquire a token for the first; the second must fail to acquire.
		t1 := te.pop(nil)
		t2 := te.pop(nil)
		if !t1.node.TryAcquireCommutative() {
			t.Fatalf("%s: first token acquisition failed", kind)
		}
		if t2.node.TryAcquireCommutative() {
			t.Fatalf("%s: token acquired twice", kind)
		}
		t1.node.ReleaseCommutative()
		if !t2.node.TryAcquireCommutative() {
			t.Fatalf("%s: token not released", kind)
		}
		t2.node.ReleaseCommutative()
		te.sys.Unregister(&t1.node, 0)
		te.sys.Unregister(&t2.node, 0)
		order := te.runAll(nil, 0)
		if order[len(order)-1] != "after" {
			t.Fatalf("%s: successor ran before commutative run drained: %v", kind, order)
		}
	}
}

func TestDuplicateAccessAlias(t *testing.T) {
	var x float64
	for _, kind := range systems() {
		te := newExec(kind, 2)
		root := mkTask("root", nil, nil)
		dup := mkTask("dup", []AccessSpec{
			{Addr: addrOf(&x), Type: ReadWrite},
			{Addr: addrOf(&x), Type: Read},
		}, nil)
		te.spawn(root, dup, 0)
		succ := mkTask("succ", []AccessSpec{{Addr: addrOf(&x), Type: ReadWrite}}, nil)
		te.spawn(root, succ, 0)
		order := te.runAll(nil, 0)
		if len(order) != 2 || order[0] != "dup" || order[1] != "succ" {
			t.Fatalf("%s: order = %v", kind, order)
		}
	}
}

func TestMultiAccessTask(t *testing.T) {
	// A task reading two addresses waits for both writers.
	var a, b float64
	for _, kind := range systems() {
		te := newExec(kind, 2)
		root := mkTask("root", nil, nil)
		wa := mkTask("wa", []AccessSpec{{Addr: addrOf(&a), Type: Write}}, nil)
		wb := mkTask("wb", []AccessSpec{{Addr: addrOf(&b), Type: Write}}, nil)
		r := mkTask("r", []AccessSpec{
			{Addr: addrOf(&a), Type: Read},
			{Addr: addrOf(&b), Type: Read},
		}, nil)
		te.spawn(root, wa, 0)
		te.spawn(root, wb, 0)
		te.spawn(root, r, 0)
		te.sys.Unregister(&te.pop(nil).node, 0)
		te.mu.Lock()
		n := len(te.ready)
		te.mu.Unlock()
		if n != 1 {
			t.Fatalf("%s: reader ready with one writer outstanding", kind)
		}
		order := te.runAll(nil, 0)
		if order[len(order)-1] != "r" {
			t.Fatalf("%s: order = %v", kind, order)
		}
	}
}

// refModel computes, for a straight-line program of read/write tasks, the
// set of (reader -> last preceding writer) constraints.
type progTask struct {
	id    int
	specs []AccessSpec
}

// TestQuickRandomGraphsRespectSerialSemantics generates random programs
// over a few addresses and executes them in random ready order under both
// systems; every read must observe the value left by its last preceding
// writer in program order, and writers must be totally ordered per
// address.
func TestQuickRandomGraphsRespectSerialSemantics(t *testing.T) {
	cells := make([]float64, 4)
	for _, kind := range systems() {
		for seed := int64(0); seed < 30; seed++ {
			r := rand.New(rand.NewSource(seed))
			nTasks := 5 + r.Intn(20)
			prog := make([]progTask, nTasks)
			lastWriter := map[unsafe.Pointer]int{}
			expect := map[int]map[unsafe.Pointer]int{} // reader id -> addr -> writer id
			for i := range prog {
				na := 1 + r.Intn(2)
				specs := make([]AccessSpec, 0, na)
				used := map[int]bool{}
				exp := map[unsafe.Pointer]int{}
				for j := 0; j < na; j++ {
					c := r.Intn(len(cells))
					if used[c] {
						continue
					}
					used[c] = true
					addr := addrOf(&cells[c])
					if r.Intn(2) == 0 {
						specs = append(specs, AccessSpec{Addr: addr, Type: Read})
						exp[addr] = lastWriter[addr]
					} else {
						specs = append(specs, AccessSpec{Addr: addr, Type: ReadWrite})
						exp[addr] = lastWriter[addr] // inout also reads
						lastWriter[addr] = i
					}
				}
				prog[i] = progTask{id: i, specs: specs}
				expect[i] = exp
			}

			for i := range cells {
				cells[i] = 0
			}
			lastWriter = map[unsafe.Pointer]int{}

			te := newExec(kind, 2)
			root := mkTask("root", nil, nil)
			violations := 0
			for _, pt := range prog {
				pt := pt
				tk := mkTask("t", pt.specs, func(self *ttask) {
					for _, sp := range pt.specs {
						cell := (*float64)(sp.Addr)
						want := float64(expect[pt.id][sp.Addr])
						if *cell != want {
							violations++
						}
						if sp.Type == ReadWrite {
							*cell = float64(pt.id)
						}
					}
				})
				te.spawn(root, tk, 0)
			}
			te.runAll(r, 0)
			if violations != 0 {
				t.Fatalf("%s seed %d: %d serial-semantics violations", kind, seed, violations)
			}
		}
	}
}

// TestParallelStress drives both systems from several goroutines at once:
// a creator registering a writer chain per cell while workers execute
// ready tasks, verifying the final cell values.
func TestParallelStress(t *testing.T) {
	const workers = 4
	const chainLen = 60
	const nCells = 8
	for _, kind := range systems() {
		cells := make([]float64, nCells)
		te := newExec(kind, workers)
		root := mkTask("root", nil, nil)
		var wg sync.WaitGroup
		var stop sync.WaitGroup
		stop.Add(1)
		total := chainLen * nCells
		done := make(chan struct{})
		executed := 0
		var execMu sync.Mutex
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				for {
					tk := te.pop(nil)
					if tk == nil {
						select {
						case <-done:
							// Drain any stragglers before exiting.
							if tk := te.pop(nil); tk == nil {
								return
							}
							continue
						default:
							continue
						}
					}
					if tk.body != nil {
						tk.body(tk)
					}
					te.sys.Unregister(&tk.node, id)
					execMu.Lock()
					executed++
					if executed == total {
						close(done)
					}
					execMu.Unlock()
				}
			}(w)
		}
		// Creator: register chains task by task (single-writer domain).
		for step := 0; step < chainLen; step++ {
			for c := 0; c < nCells; c++ {
				c := c
				tk := mkTask("w", []AccessSpec{{Addr: addrOf(&cells[c]), Type: ReadWrite}},
					func(*ttask) { cells[c]++ })
				te.spawn(root, tk, workers)
			}
		}
		wg.Wait()
		for c := range cells {
			if cells[c] != chainLen {
				t.Fatalf("%s: cell %d = %v, want %d (lost or duplicated updates)",
					kind, c, cells[c], chainLen)
			}
		}
	}
}
