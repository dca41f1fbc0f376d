package deps

import (
	"testing"
	"unsafe"
)

// benchRegisterUnregister measures the full dependency lifecycle of one
// task in a writer chain: registration, satisfiability propagation on
// the predecessor's release, and unregistration. This is the §2 hot
// path; the wait-free system's advantage over the locking baseline here
// is the mechanism behind the "w/o wait-free dependencies" gap.
func benchRegisterUnregister(b *testing.B, kind string) {
	var cell float64
	te := newExec(kind, 2)
	root := mkTask("root", nil, nil)
	spec := []AccessSpec{{Addr: unsafe.Pointer(&cell), Type: ReadWrite}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk := mkTask("w", spec, nil)
		te.spawn(root, tk, 0)
		// The chain head is always ready immediately (predecessor
		// released); run and release it.
		got := te.pop(nil)
		te.sys.Unregister(&got.node, 0)
	}
}

func BenchmarkWaitFreeChainLifecycle(b *testing.B) { benchRegisterUnregister(b, "waitfree") }
func BenchmarkLockedChainLifecycle(b *testing.B)   { benchRegisterUnregister(b, "locked") }

// benchIndependent measures tasks with disjoint accesses: pure
// registration overhead, no chain interaction.
func benchIndependent(b *testing.B, kind string) {
	cells := make([]float64, 64)
	te := newExec(kind, 2)
	root := mkTask("root", nil, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &cells[i%len(cells)]
		tk := mkTask("w", []AccessSpec{{Addr: unsafe.Pointer(c), Type: ReadWrite}}, nil)
		te.spawn(root, tk, 0)
		got := te.pop(nil)
		te.sys.Unregister(&got.node, 0)
	}
}

func BenchmarkWaitFreeIndependentTasks(b *testing.B) { benchIndependent(b, "waitfree") }
func BenchmarkLockedIndependentTasks(b *testing.B)   { benchIndependent(b, "locked") }

// benchReduction measures reduction-run membership: join, slot, release.
func benchReduction(b *testing.B, kind string) {
	target := []float64{0}
	te := newExec(kind, 2)
	root := mkTask("root", nil, nil)
	spec := []AccessSpec{{Addr: unsafe.Pointer(&target[0]), Len: 1, Type: Reduction, Op: OpSum}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk := mkTask("r", spec, nil)
		te.spawn(root, tk, 0)
		got := te.pop(nil)
		got.node.ReductionBuffer(unsafe.Pointer(&target[0]), 0)[0]++
		te.sys.Unregister(&got.node, 0)
	}
}

func BenchmarkWaitFreeReductionMember(b *testing.B) { benchReduction(b, "waitfree") }
func BenchmarkLockedReductionMember(b *testing.B)   { benchReduction(b, "locked") }

// BenchmarkStencil5 measures the dependency layer's whole cost of one
// heat_fine task: registration and unregistration of the five-point
// Gauss-Seidel wavefront on a 32 x 32 tiling, four sweeps per
// repetition, five accesses per interior task — all inline, so the
// steady state allocates nothing (one domain map per repetition of
// 4096 tasks is the remainder). One op is one task.
func BenchmarkStencil5(b *testing.B) {
	const nb, sweeps = 32, 4
	cells := make([]float64, nb*nb)
	addr := func(bi, bj int) unsafe.Pointer { return unsafe.Pointer(&cells[bi*nb+bj]) }
	nodes := make([]Node, sweeps*nb*nb)
	var ready []*Node
	sys := NewWaitFree(func(n *Node, _ int) { ready = append(ready, n) }, 1)
	specs := make([]AccessSpec, 0, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += len(nodes) {
		var parent Node
		ready = ready[:0]
		k := 0
		for s := 0; s < sweeps; s++ {
			for bi := 0; bi < nb; bi++ {
				for bj := 0; bj < nb; bj++ {
					specs = stencil5Specs(specs, addr, nb, bi, bj)
					n := &nodes[k]
					k++
					n.Reset()
					n.Pin() // the shell guard
					acc := n.InitAccesses(len(specs))
					for i := range specs {
						acc[i].Init(n, specs[i])
					}
					sys.Register(&parent, n, 0)
				}
			}
		}
		for i := 0; i < len(ready); i++ {
			sys.Unregister(ready[i], 0)
			ready[i].Unpin()
		}
		if len(ready) != len(nodes) {
			b.Fatalf("%d of %d tasks became ready", len(ready), len(nodes))
		}
	}
}
