package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/alloc"
	"repro/internal/counter"
	"repro/internal/deps"
	"repro/internal/event"
	"repro/internal/locks"
	"repro/internal/sched"
	"repro/internal/spsc"
)

// Layer drivers: fixed-count loops that call each internal package's
// exported functions directly, with the access shapes and thread
// counts the workloads use, so a change to one layer has a number of
// its own to move before any end-to-end metric does. Concurrent
// drivers keep their goroutines at or under P.

// layerMetric is one per-layer value with the operation count behind it.
type layerMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Ops   int     `json:"ops"`
}

// driverOps is the operation count of most drivers.
func driverOps(sz sizing) int {
	if sz.smoke {
		return 1 << 12
	}
	return 1 << 19
}

func perOp(elapsed int64, ops int) float64 { return float64(elapsed) / float64(ops) }

// runDrivers runs every layer driver once.
func runDrivers(sz sizing) []layerMetric {
	var out []layerMetric
	for _, d := range []func(sizing) []layerMetric{
		depsChainDriver, depsStencilDriver, depsRootDriver,
		schedSyncDriver, schedPolicyDriver, parkDriver,
		dtlockDriver, spscDriver, allocDriver,
		wheelDriver, slotsDriver, histDriver,
	} {
		out = append(out, d(sz)...)
	}
	return out
}

// depsExec is the smallest executor the wait-free dependency system
// needs: a FIFO of ready nodes.
type depsExec struct {
	sys   *deps.WaitFree
	ready []*deps.Node
}

func newDepsExec() *depsExec {
	e := &depsExec{}
	e.sys = deps.NewWaitFree(func(n *deps.Node, _ int) { e.ready = append(e.ready, n) }, 1)
	return e
}

// initNode gives n the task's own pin and its accesses, as the core's
// newTask does.
func initNode(n *deps.Node, specs []deps.AccessSpec) {
	n.Pin()
	acc := n.InitAccesses(len(specs))
	for i := range specs {
		acc[i].Init(n, specs[i])
	}
}

// depsChainDriver registers and unregisters tasks that all take one
// inout cell: the dependency chain of a Submit stream on one key.
func depsChainDriver(sz sizing) []layerMetric {
	n := driverOps(sz)
	e := newDepsExec()
	var cell float64
	var parent deps.Node
	spec := []deps.AccessSpec{{Addr: unsafe.Pointer(&cell), Type: deps.ReadWrite}}
	// A node is quiescent once its successor has registered (which
	// drops its chain-tail pin), so a short ring can be reused as the
	// allocator reuses task shells.
	var ring [64]deps.Node
	var reg, unreg int64
	for i := 0; i < n; i++ {
		nd := &ring[i%len(ring)]
		nd.Reset()
		initNode(nd, spec)
		t0 := now()
		e.sys.Register(&parent, nd, 0)
		t1 := now()
		// The head of the chain is ready at once: its predecessor has
		// already released.
		e.sys.Unregister(e.ready[0], 0)
		unreg += now() - t1
		reg += t1 - t0
		nd.Unpin()
		e.ready = e.ready[:0]
	}
	return []layerMetric{
		{"deps.chain_register_ns", "ns", perOp(reg, n), n},
		{"deps.chain_unregister_ns", "ns", perOp(unreg, n), n},
	}
}

// depsStencilDriver registers heat_fine's five-access tile tasks for
// whole repetitions, then releases them in ready order, counting how
// many tasks each release makes ready.
func depsStencilDriver(sz sizing) []layerMetric {
	const nb, sweeps = 32, 4
	reps := max(1, driverOps(sz)/(8*nb*nb*sweeps))
	cells := make([]float64, nb*nb)
	rep := func(bi, bj int) unsafe.Pointer { return unsafe.Pointer(&cells[bi*nb+bj]) }
	var reg, unreg int64
	tasks, unregs, readied := 0, 0, 0
	for r := 0; r < reps; r++ {
		e := newDepsExec()
		var parent deps.Node
		nodes := make([]deps.Node, sweeps*nb*nb)
		specs := make([]deps.AccessSpec, 0, 5)
		t0 := now()
		k := 0
		for s := 0; s < sweeps; s++ {
			for bi := 0; bi < nb; bi++ {
				for bj := 0; bj < nb; bj++ {
					specs = append(specs[:0], deps.AccessSpec{Addr: rep(bi, bj), Type: deps.ReadWrite})
					if bi > 0 {
						specs = append(specs, deps.AccessSpec{Addr: rep(bi-1, bj), Type: deps.Read})
					}
					if bj > 0 {
						specs = append(specs, deps.AccessSpec{Addr: rep(bi, bj-1), Type: deps.Read})
					}
					if bi < nb-1 {
						specs = append(specs, deps.AccessSpec{Addr: rep(bi+1, bj), Type: deps.Read})
					}
					if bj < nb-1 {
						specs = append(specs, deps.AccessSpec{Addr: rep(bi, bj+1), Type: deps.Read})
					}
					initNode(&nodes[k], specs)
					e.sys.Register(&parent, &nodes[k], 0)
					k++
				}
			}
		}
		t1 := now()
		initially := len(e.ready)
		for i := 0; i < len(e.ready); i++ {
			e.sys.Unregister(e.ready[i], 0)
		}
		unreg += now() - t1
		reg += t1 - t0
		tasks += k
		unregs += len(e.ready)
		readied += len(e.ready) - initially
	}
	return []layerMetric{
		{"deps.stencil_register_ns", "ns", perOp(reg, tasks), tasks},
		{"deps.stencil_unregister_ns", "ns", perOp(unreg, unregs), unregs},
		{"deps.ready_per_unregister", "count", float64(readied) / float64(unregs), unregs},
	}
}

// depsRootDriver takes and returns the root-domain lease of a Submit
// with qos_mix's apply shape: one staging cell and one key.
func depsRootDriver(sz sizing) []layerMetric {
	n := driverOps(sz)
	d := deps.NewRootDomain(16)
	cells := make([]float64, 1024)
	accs := make([]deps.AccessSpec, 2)
	t0 := now()
	for i := 0; i < n; i++ {
		accs[0] = deps.AccessSpec{Addr: unsafe.Pointer(&cells[i%1024]), Type: deps.Read}
		accs[1] = deps.AccessSpec{Addr: unsafe.Pointer(&cells[(i*7+3)%1024]), Type: deps.ReadWrite}
		d.Acquire(accs).Release()
	}
	return []layerMetric{{"deps.root_acquire_ns", "ns", perOp(now()-t0, n), n}}
}

// concurrently runs f(0..n-1) on n goroutines and returns the wall time.
func concurrently(n int, f func(id int)) int64 {
	var wg sync.WaitGroup
	t0 := now()
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(id)
		}()
	}
	wg.Wait()
	return now() - t0
}

// drain polls s as worker id until n items have been taken by all
// consumers together, publishing its own count in batches so the
// shared counter stays off the measured path.
func drain(s *sched.Sync[*int], id int, taken *atomic.Int64, n int) {
	local := int64(0)
	for taken.Load() < int64(n) {
		if s.Get(id) != nil {
			if local++; local < 64 {
				continue
			}
		} else if local == 0 {
			continue
		}
		taken.Add(local)
		local = 0
	}
}

// schedSyncDriver drives the synchronized scheduler as the runtime
// does: one producer adding while consumers poll (P goroutines in
// all), then P consumers draining a filled scheduler, then P
// consumers polling an empty one. The producer stays half an
// insertion queue ahead of the consumers at most, as the workloads'
// windows and batches do: see insertQueueCap.
func schedSyncDriver(sz sizing) []layerMetric {
	n := driverOps(sz)
	consumers := max(1, sz.P-1)
	items := make([]int, n)
	mk := func() *sched.Sync[*int] {
		return sched.NewSync[*int](sched.NewFIFO[*int](), sz.P, 1, 1, insertQueueCap, sched.Hooks{})
	}

	s := mk()
	var taken atomic.Int64
	var addNS int64
	concurrently(consumers+1, func(id int) {
		if id == consumers { // the producer, on the submitter slot
			t0 := now()
			for i := range items {
				for int64(i)-taken.Load() > insertQueueCap/2 {
				}
				s.Add(&items[i], sz.P)
			}
			addNS = now() - t0
			return
		}
		drain(s, id, &taken, n)
	})

	s = mk()
	for i := range items {
		s.Add(&items[i], sz.P)
	}
	taken.Store(0)
	var getNS atomic.Int64
	concurrently(sz.P, func(id int) {
		t0 := now()
		drain(s, id, &taken, n)
		getNS.Add(now() - t0)
	})

	var emptyNS atomic.Int64
	concurrently(sz.P, func(id int) {
		t0 := now()
		for i := 0; i < n/sz.P; i++ {
			s.Get(id)
		}
		emptyNS.Add(now() - t0)
	})
	empties := n / sz.P * sz.P
	return []layerMetric{
		{"sched.add_ns", "ns", perOp(addNS, n), n},
		{"sched.get_ns", "ns", perOp(getNS.Load(), n), n},
		{"sched.get_empty_ns", "ns", perOp(emptyNS.Load(), empties), empties},
	}
}

// schedPolicyDriver pushes and pops through a bare FIFO policy and
// through the Priority wrapper with everything at level 0, at a
// standing depth of 64: the difference is what the priority dimension
// costs a run that never uses it.
func schedPolicyDriver(sz sizing) []layerMetric {
	n := driverOps(sz)
	items := make([]int, 64)
	run := func(p sched.Policy[*int]) int64 {
		for i := range items {
			p.Push(&items[i])
		}
		t0 := now()
		for i := 0; i < n; i++ {
			t, _ := p.Pop(0)
			p.Push(t)
		}
		return now() - t0
	}
	fifo := run(sched.NewFIFO[*int]())
	pri := run(sched.NewPriority(func() sched.Policy[*int] { return sched.NewFIFO[*int]() }, func(*int) int { return 0 }))
	return []layerMetric{
		{"sched.fifo_add_get_ns", "ns", perOp(fifo, n), n},
		{"sched.priority_add_get_ns", "ns", perOp(pri, n), n},
	}
}

// parkDriver hands a token back and forth between two goroutines that
// sleep in Parker.Park between turns, with the runtime's protocol:
// publish the work, WakeOne, and park with a recheck. The waker first
// waits until its peer has committed to its sleep (Parks counts a park
// only once the recheck has failed), so every hand-off pays a channel
// sleep and wake and none is cancelled by the recheck.
func parkDriver(sz sizing) []layerMetric {
	rounds := driverOps(sz) / 64
	p := sched.NewParker(2, 1, nil)
	var token [2]atomic.Bool
	token[0].Store(true)
	wall := concurrently(2, func(id int) {
		for i := 0; i < rounds; i++ {
			for !token[id].Load() {
				p.Park(id, token[id].Load)
			}
			token[id].Store(false)
			// Hand-off number 2i+id follows the peer's park number 2i+id+1;
			// the last one has no peer left to wait for.
			for last := id == 1 && i == rounds-1; !last && p.Parks() < uint64(2*i+id+1); {
				runtime.Gosched()
			}
			token[1-id].Store(true)
			p.WakeOne(0, -1)
		}
	})
	return []layerMetric{{"sched.park_wake_us", "us", perOp(wall, 2*rounds) / 1e3, 2 * rounds}}
}

// dtlockDriver contends P goroutines on one Delegation Ticket Lock.
// The owner serves every waiter it finds before unlocking, as the
// scheduler's Get does; the ratio is the share of calls answered by
// delegation instead of by taking the lock.
func dtlockDriver(sz sizing) []layerMetric {
	per := driverOps(sz) / sz.P
	l := locks.NewDTLock[int](sz.P)
	var delegated, ns atomic.Int64
	concurrently(sz.P, func(id int) {
		var item, d int
		t0 := now()
		for i := 0; i < per; i++ {
			if !l.LockOrDelegate(uint64(id), &item) {
				d++
				continue
			}
			for !l.Empty() {
				l.SetItem(l.Front(), i)
				l.PopFront()
			}
			l.Unlock()
		}
		ns.Add(now() - t0)
		delegated.Add(int64(d))
	})
	calls := per * sz.P
	return []layerMetric{
		{"locks.dtlock_cycle_ns", "ns", perOp(ns.Load(), calls), calls},
		{"locks.dtlock_delegated_ratio", "ratio", float64(delegated.Load()) / float64(calls), calls},
	}
}

// spscDriver moves items through one insertion queue of the size the
// scheduler uses, producer and consumer on their own goroutines when
// P allows, counting pushes that found it full.
func spscDriver(sz sizing) []layerMetric {
	n := driverOps(sz)
	q := spsc.New[int](256)
	var full int64
	produce := func() {
		for i := 0; i < n; {
			if q.Push(i) {
				i++
			} else {
				full++
			}
		}
	}
	consume := func(until int) {
		for got := 0; got < until; {
			if _, ok := q.Pop(); ok {
				got++
			}
		}
	}
	var wall int64
	if sz.P >= 2 {
		wall = concurrently(2, func(id int) {
			if id == 0 {
				produce()
			} else {
				consume(n)
			}
		})
	} else {
		t0 := now()
		for i := 0; i < n; i++ {
			q.Push(i)
			q.Pop()
		}
		wall = now() - t0
	}
	return []layerMetric{
		{"spsc.push_pop_ns", "ns", perOp(wall, n), n},
		{"spsc.push_full_ratio", "ratio", float64(full) / float64(int64(n)+full), n},
	}
}

// allocDriver takes and returns task-sized objects on one slot, then
// takes on one slot and returns on another in batches, which is
// spawn_flat's pattern: the creator allocates, the other workers free.
func allocDriver(sz sizing) []layerMetric {
	n := driverOps(sz)
	type shell [256]byte
	p := alloc.NewPooled[shell](2, 0)
	t0 := now()
	for i := 0; i < n; i++ {
		p.Put(0, p.Get(0))
	}
	same := now() - t0
	var held [64]*shell
	t0 = now()
	for i := 0; i < n; i += len(held) {
		for j := range held {
			held[j] = p.Get(0)
		}
		for j := range held {
			p.Put(1, held[j])
		}
	}
	cross := now() - t0
	return []layerMetric{
		{"alloc.get_put_ns", "ns", perOp(same, n), n},
		{"alloc.cross_put_ns", "ns", perOp(cross, n), n},
	}
}

// wheelDriver schedules echo_paced's one-millisecond timers on a wheel
// of the runtime's tick, sixteen at a time, and measures the After
// call and how late each timer fires.
func wheelDriver(sz sizing) []layerMetric {
	n := driverOps(sz) / 64 / echoWindow * echoWindow
	w := event.NewWheel(0, 0)
	defer w.Stop()
	lag := newRecorder(1, n) // fired on the wheel goroutine alone
	var afterNS int64
	var wg sync.WaitGroup
	for i := 0; i < n; i += echoWindow {
		wg.Add(echoWindow)
		for j := 0; j < echoWindow; j++ {
			t0 := now()
			w.After(echoBackend, func() {
				lag.add(0, now()-t0-echoBackend.Nanoseconds())
				wg.Done()
			})
			afterNS += now() - t0
		}
		wg.Wait()
	}
	return []layerMetric{
		{"event.wheel_after_ns", "ns", perOp(afterNS, n), n},
		{"event.wheel_fire_lag_us", "us", medianInt(lag.sorted()) / 1e3, n},
	}
}

func slotsDriver(sz sizing) []layerMetric {
	n := driverOps(sz)
	s := event.NewSlots(0, 4)
	t0 := now()
	for i := 0; i < n; i++ {
		s.Release(s.Acquire())
	}
	return []layerMetric{{"event.slots_acquire_ns", "ns", perOp(now()-t0, n), n}}
}

func histDriver(sz sizing) []layerMetric {
	n := driverOps(sz)
	h := counter.NewHistogram(1)
	t0 := now()
	for i := 0; i < n; i++ {
		h.Record(0, int64(i)*37)
	}
	return []layerMetric{{"counter.hist_record_ns", "ns", perOp(now()-t0, n), n}}
}
