package deps

import (
	"math"
	"math/rand"
	"testing"
)

// TestLongChainCascade releases a long writer chain and ensures the
// propagation cascade is iterative (mailbox-driven), not recursive: a
// 20k-deep chain must not overflow the stack in either system.
func TestLongChainCascade(t *testing.T) {
	var x float64
	for _, kind := range systems() {
		te := newExec(kind, 2)
		root := mkTask("root", nil, nil)
		const n = 20000
		for i := 0; i < n; i++ {
			te.spawn(root, mkTask("w", []AccessSpec{{Addr: addrOf(&x), Type: ReadWrite}}, nil), 0)
		}
		ran := len(te.runAll(nil, 0))
		if ran != n {
			t.Fatalf("%s: ran %d of %d chained tasks", kind, ran, n)
		}
	}
}

// TestManyIndependentChains stresses the bottom map with many addresses.
func TestManyIndependentChains(t *testing.T) {
	cells := make([]float64, 500)
	for _, kind := range systems() {
		te := newExec(kind, 2)
		root := mkTask("root", nil, nil)
		for round := 0; round < 3; round++ {
			for i := range cells {
				i := i
				te.spawn(root, mkTask("w",
					[]AccessSpec{{Addr: addrOf(&cells[i]), Type: ReadWrite}},
					func(*ttask) { cells[i]++ }), 0)
			}
		}
		te.runAll(rand.New(rand.NewSource(2)), 0)
		for i := range cells {
			if cells[i] != 3 {
				t.Fatalf("%s: cell %d = %v", kind, i, cells[i])
			}
			cells[i] = 0
		}
	}
}

// TestCommutativeAfterDomainClose registers commutative tasks, closes
// the domain (taskwait), then registers more: the second run must form
// a new group chained after the first.
func TestCommutativeAfterDomainClose(t *testing.T) {
	var x float64
	for _, kind := range systems() {
		te := newExec(kind, 2)
		root := mkTask("root", nil, nil)
		spec := []AccessSpec{{Addr: addrOf(&x), Type: Commutative}}
		var order []string
		for i := 0; i < 3; i++ {
			te.spawn(root, mkTask("a", spec, func(*ttask) { order = append(order, "a") }), 0)
		}
		te.runAll(nil, 0)
		te.sys.CloseDomain(&root.node, 0)
		for i := 0; i < 3; i++ {
			te.spawn(root, mkTask("b", spec, func(*ttask) { order = append(order, "b") }), 0)
		}
		te.runAll(nil, 0)
		if len(order) != 6 {
			t.Fatalf("%s: ran %v", kind, order)
		}
		for i := 0; i < 3; i++ {
			if order[i] != "a" || order[i+3] != "b" {
				t.Fatalf("%s: order %v", kind, order)
			}
		}
	}
}

// TestReductionGroupAfterReduction verifies two back-to-back reduction
// runs of different operations chain correctly: the second combines only
// after the first has released.
func TestReductionGroupAfterReduction(t *testing.T) {
	target := []float64{0}
	for _, kind := range systems() {
		target[0] = 0
		te := newExec(kind, 2)
		root := mkTask("root", nil, nil)
		sum := []AccessSpec{{Addr: addrOf(&target[0]), Len: 1, Type: Reduction, Op: OpSum}}
		mx := []AccessSpec{{Addr: addrOf(&target[0]), Len: 1, Type: Reduction, Op: OpMax}}
		for i := 0; i < 4; i++ {
			te.spawn(root, mkTask("s", sum, func(self *ttask) {
				self.node.ReductionBuffer(addrOf(&target[0]), 0)[0] += 2
			}), 0)
		}
		for i := 0; i < 3; i++ {
			v := float64(i)
			te.spawn(root, mkTask("m", mx, func(self *ttask) {
				buf := self.node.ReductionBuffer(addrOf(&target[0]), 1)
				if v > buf[0] {
					buf[0] = v
				}
			}), 0)
		}
		te.runAll(rand.New(rand.NewSource(4)), 0)
		te.sys.CloseDomain(&root.node, 0)
		// Sum run: 0 + 4*2 = 8; max run: max(8, 0, 1, 2) = 8.
		if target[0] != 8 {
			t.Fatalf("%s: target = %v, want 8", kind, target[0])
		}
	}
}

// TestQuickSystemsAgree runs random integer-valued programs under both
// systems and requires both to reach the serial final state. Each cell
// is two elements, and a task is an inout update, a sum reduction of
// length 1, a max or min reduction of length 2 or a commutative update
// (which takes and returns its run's token): chain order fixes the
// result, and a run's members commute, so any valid execution agrees
// with the serial one. That checks the run storage both systems share —
// slot identities, combine, token — and how each reaches it.
func TestQuickSystemsAgree(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		nTasks := 4 + r.Intn(16)
		kinds := make([]int, nTasks)   // 0 inout, 1 sum, 2 max, 3 min, 4 commutative
		cellIdx := make([]int, nTasks) // target cell
		for i := range kinds {
			kinds[i] = r.Intn(5)
			cellIdx[i] = r.Intn(3)
		}
		want := make([]float64, 6) // the serial execution
		for i, k := range kinds {
			c, v := want[2*cellIdx[i]:2*cellIdx[i]+2], float64(i%5)
			switch k {
			case 0:
				c[0], c[1] = c[0]+1, c[1]-1
			case 1:
				c[0]++
			case 2:
				c[0], c[1] = math.Max(c[0], v), math.Max(c[1], -v)
			case 3:
				c[0], c[1] = math.Min(c[0], v), math.Min(c[1], -v)
			default:
				c[0], c[1] = c[0]+3, c[1]-3
			}
		}
		for _, kind := range systems() {
			cells := make([]float64, 6)
			te := newExec(kind, 2)
			root := mkTask("root", nil, nil)
			for i := 0; i < nTasks; i++ {
				c := cells[2*cellIdx[i] : 2*cellIdx[i]+2]
				addr, v, w := addrOf(&c[0]), float64(i%5), i%2
				red := func(op ReductionOp, f func(x, y float64) float64) *ttask {
					return mkTask("r", []AccessSpec{{Addr: addr, Len: 2, Type: Reduction, Op: op}},
						func(self *ttask) {
							buf := self.node.ReductionBuffer(addr, w)
							buf[0], buf[1] = f(buf[0], v), f(buf[1], -v)
						})
				}
				var tk *ttask
				switch kinds[i] {
				case 0:
					tk = mkTask("w", []AccessSpec{{Addr: addr, Type: ReadWrite}},
						func(*ttask) { c[0], c[1] = c[0]+1, c[1]-1 })
				case 1:
					tk = mkTask("s", []AccessSpec{{Addr: addr, Len: 1, Type: Reduction, Op: OpSum}},
						func(self *ttask) { self.node.ReductionBuffer(addr, w)[0]++ })
				case 2:
					tk = red(OpMax, math.Max)
				case 3:
					tk = red(OpMin, math.Min)
				default:
					tk = mkTask("c", []AccessSpec{{Addr: addr, Type: Commutative}}, func(self *ttask) {
						if !self.node.TryAcquireCommutative() || self.node.TryAcquireCommutative() {
							t.Errorf("seed %d %s: commutative token not exclusive", seed, kind)
						}
						c[0], c[1] = c[0]+3, c[1]-3
						self.node.ReleaseCommutative()
					})
				}
				te.spawn(root, tk, 0)
			}
			te.runAll(r, 0)
			te.sys.CloseDomain(&root.node, 0)
			for i := range want {
				if cells[i] != want[i] {
					t.Fatalf("seed %d %s: element %d = %v, serial order gives %v", seed, kind, i, cells[i], want[i])
				}
			}
		}
	}
}

// TestReadsAfterReductionConcurrent: readers following a reduction run
// must all see the combined value and be simultaneously ready.
func TestReadsAfterReductionConcurrent(t *testing.T) {
	target := []float64{0}
	for _, kind := range systems() {
		target[0] = 0
		te := newExec(kind, 3)
		root := mkTask("root", nil, nil)
		spec := []AccessSpec{{Addr: addrOf(&target[0]), Len: 1, Type: Reduction, Op: OpSum}}
		for i := 0; i < 3; i++ {
			te.spawn(root, mkTask("red", spec, func(self *ttask) {
				self.node.ReductionBuffer(addrOf(&target[0]), 0)[0]++
			}), 0)
		}
		seen := make([]float64, 2)
		for i := 0; i < 2; i++ {
			i := i
			te.spawn(root, mkTask("rd",
				[]AccessSpec{{Addr: addrOf(&target[0]), Type: Read}},
				func(*ttask) { seen[i] = target[0] }), 0)
		}
		// Run the reductions only.
		for i := 0; i < 3; i++ {
			tk := te.pop(nil)
			tk.body(tk)
			te.sys.Unregister(&tk.node, 0)
		}
		te.mu.Lock()
		ready := len(te.ready)
		te.mu.Unlock()
		if ready != 2 {
			t.Fatalf("%s: %d readers ready after combine, want 2", kind, ready)
		}
		te.runAll(nil, 0)
		if seen[0] != 3 || seen[1] != 3 {
			t.Fatalf("%s: readers saw %v", kind, seen)
		}
	}
}
