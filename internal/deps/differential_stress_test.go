package deps

// Differential stress suite: randomized task graphs over small address
// sets run through BOTH dependency systems and cross-checked against a
// per-address happens-before oracle. The oracle enforces, per address:
//
//   - mutual exclusion: an exclusive (out/inout/commutative) body never
//     overlaps any other body on the address, and readers never overlap
//     writers (readers may overlap readers);
//   - completion order: every body observes exactly the address version
//     its position in the declared chain entitles it to — a version is
//     the count of exclusive bodies that released before it, so a
//     too-early or out-of-order execution is caught even when it does
//     not physically overlap;
//   - exactly-once: the final version equals the number of declared
//     exclusive accesses, and every task ran exactly once.
//
// Specs are generated from a seed (report its value to replay) and
// shrunk on failure by removing tasks while the failure reproduces.

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// stressAccess is one declared access of a generated task.
type stressAccess struct {
	addr int // index into the spec's cell array
	typ  AccessType
	weak bool
}

func (a stressAccess) String() string {
	w := ""
	if a.weak {
		w = "weak-"
	}
	return fmt.Sprintf("%s%s(c%d)", w, a.typ, a.addr)
}

// stressSpec is one generated graph: tasks register in slice order, so
// the declared dependency chains are exactly the per-address access
// sequences in that order.
type stressSpec struct {
	cells int
	tasks [][]stressAccess
}

func (s stressSpec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cells=%d tasks=%d\n", s.cells, len(s.tasks))
	for i, accs := range s.tasks {
		fmt.Fprintf(&b, "  t%-3d", i)
		for _, a := range accs {
			fmt.Fprintf(&b, " %s", a)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// genStressSpec draws a random graph: few addresses (so chains are long
// and contended), mixed access types including weak anchors and
// duplicate declarations (alias path). Tasks declare one to seven
// accesses over up to ten addresses, so access sets on both sides of
// InlineAccessCap — the inline array full, and the overflow slice one
// and two past it — run under the oracle.
func genStressSpec(r *rand.Rand) stressSpec {
	spec := stressSpec{cells: 2 + r.Intn(9)}
	n := 1 + r.Intn(40)
	for t := 0; t < n; t++ {
		na := 1 + r.Intn(InlineAccessCap+2)
		accs := make([]stressAccess, 0, na)
		for a := 0; a < na; a++ {
			acc := stressAccess{addr: r.Intn(spec.cells)}
			switch p := r.Intn(100); {
			case p < 30:
				acc.typ = Read
			case p < 50:
				acc.typ = Write
			case p < 70:
				acc.typ = ReadWrite
			case p < 85:
				acc.typ = Commutative
			case p < 93:
				acc.typ = Read
				acc.weak = true
			default:
				acc.typ = ReadWrite
				acc.weak = true
			}
			accs = append(accs, acc)
		}
		spec.tasks = append(spec.tasks, accs)
	}
	return spec
}

// expectation is the version window one non-weak access may observe at
// body time: lo==hi for ordinary accesses, a run-wide window for
// commutative run members (they execute in any order within the run).
type expectation struct {
	lo, hi int
}

// computeExpectations walks the spec in registration order and assigns
// each (task, access) its version window, reproducing the chain
// semantics: reads expect the count of prior exclusives, exclusives
// expect their own position, consecutive commutatives share the run's
// window. Weak and alias accesses get no expectation (nil entries).
func computeExpectations(spec stressSpec) [][]*expectation {
	type addrState struct {
		excl     int // exclusive accesses so far
		runStart int // first version of the trailing commutative run
		inRun    bool
		runMembs []*expectation // members of the trailing run, for hi fixup
	}
	st := make([]addrState, spec.cells)
	exps := make([][]*expectation, len(spec.tasks))
	closeRun := func(s *addrState) {
		for _, e := range s.runMembs {
			e.hi = s.excl - 1
		}
		s.inRun = false
		s.runMembs = nil
	}
	for t, accs := range spec.tasks {
		exps[t] = make([]*expectation, len(accs))
		seen := map[int]bool{}
		for i, a := range accs {
			if seen[a.addr] {
				continue // alias: the system links only the first
			}
			seen[a.addr] = true
			if a.weak {
				// Weak accesses never run a body on the address; they
				// only anchor chains, so they neither observe nor bump
				// the version. They do close a commutative run (the
				// chain links them after it).
				closeRun(&st[a.addr])
				continue
			}
			s := &st[a.addr]
			switch a.typ {
			case Read:
				closeRun(s)
				exps[t][i] = &expectation{lo: s.excl, hi: s.excl}
			case Write, ReadWrite:
				closeRun(s)
				exps[t][i] = &expectation{lo: s.excl, hi: s.excl}
				s.excl++
			case Commutative:
				if !s.inRun {
					s.inRun = true
					s.runStart = s.excl
				}
				e := &expectation{lo: s.runStart}
				s.runMembs = append(s.runMembs, e)
				exps[t][i] = e
				s.excl++
			}
		}
	}
	for a := range st {
		closeRun(&st[a])
	}
	return exps
}

// stressCell is one address's oracle state, padded against false
// sharing so the oracle itself does not serialize the run.
type stressCell struct {
	data    float64 // the dependency address
	ver     atomic.Int64
	readers atomic.Int64
	writers atomic.Int64
	_       [24]byte
}

// stressRun executes spec on the named dependency system with a
// concurrent worker pool and the happens-before oracle armed. It
// returns an error describing the first violations, a deadlock (tasks
// never completing), or a wrong final state.
func stressRun(kind string, spec stressSpec, seed int64) error {
	const workers = 4
	cells := make([]stressCell, spec.cells)
	exps := computeExpectations(spec)

	var (
		vmu        sync.Mutex
		violations []string
	)
	violate := func(format string, args ...any) {
		vmu.Lock()
		if len(violations) < 5 {
			violations = append(violations, fmt.Sprintf(format, args...))
		}
		vmu.Unlock()
	}

	type stask struct {
		node Node
		id   int
		ran  atomic.Int32
	}
	var (
		rmu   sync.Mutex
		ready []*stask
	)
	readyFn := func(n *Node, worker int) {
		t := n.Payload.(*stask)
		rmu.Lock()
		ready = append(ready, t)
		rmu.Unlock()
	}
	var sys System
	switch kind {
	case "waitfree":
		sys = NewWaitFree(readyFn, workers)
	case "locked":
		sys = NewLocked(readyFn, workers)
	default:
		panic(kind)
	}

	// touch performs the oracle checks for one non-weak access: entry
	// counters catch physical overlap, the version check catches order
	// inversions that never physically overlapped.
	touch := func(t *stask, i int, a stressAccess, exp *expectation, enter bool) {
		c := &cells[a.addr]
		excl := a.typ != Read
		if enter {
			if excl {
				if w := c.writers.Add(1); w != 1 {
					violate("t%d %s: %d concurrent exclusive bodies", t.id, a, w)
				}
				if r := c.readers.Load(); r != 0 {
					violate("t%d %s: exclusive body overlaps %d readers", t.id, a, r)
				}
			} else {
				c.readers.Add(1)
				if w := c.writers.Load(); w != 0 {
					violate("t%d %s: reader overlaps %d exclusive bodies", t.id, a, w)
				}
			}
			if v := int(c.ver.Load()); v < exp.lo || v > exp.hi {
				violate("t%d %s: observed version %d, want [%d,%d]", t.id, a, v, exp.lo, exp.hi)
			}
			return
		}
		if excl {
			c.ver.Add(1)
			c.writers.Add(-1)
		} else {
			c.readers.Add(-1)
		}
	}

	var completed atomic.Int64
	execute := func(t *stask, w int, r *rand.Rand) {
		if t.ran.Add(1) != 1 {
			violate("t%d executed more than once", t.id)
		}
		accs := spec.tasks[t.id]
		exp := exps[t.id]
		for i, a := range accs {
			if exp[i] != nil {
				touch(t, i, a, exp[i], true)
			}
		}
		// Dwell inside the body so overlap windows are physically wide.
		for i := 0; i < 40; i++ {
			if i&15 == 0 {
				runtime.Gosched()
			}
		}
		for i := len(accs) - 1; i >= 0; i-- {
			if exp[i] != nil {
				touch(t, i, accs[i], exp[i], false)
			}
		}
		sys.Unregister(&t.node, w)
		completed.Add(1)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed ^ int64(w)<<32))
			for spins := 0; ; spins++ {
				rmu.Lock()
				var t *stask
				if len(ready) > 0 {
					i := r.Intn(len(ready))
					t = ready[i]
					ready[i] = ready[len(ready)-1]
					ready = ready[:len(ready)-1]
				}
				rmu.Unlock()
				if t == nil {
					select {
					case <-stop:
						return
					default:
					}
					runtime.Gosched()
					continue
				}
				spins = 0
				if t.node.HasCommutative() && !t.node.TryAcquireCommutative() {
					rmu.Lock()
					ready = append(ready, t)
					rmu.Unlock()
					runtime.Gosched()
					continue
				}
				execute(t, w, r)
				t.node.ReleaseCommutative()
			}
		}(w)
	}

	// Register every task from the root, in spec order, concurrently
	// with the workers executing and unregistering (the registrar uses
	// the reserved extra worker index, as the runtime's submitters do).
	root := &stask{id: -1}
	root.node.Payload = root
	tasks := make([]*stask, len(spec.tasks))
	for t := range spec.tasks {
		st := &stask{id: t}
		st.node.Payload = st
		dst := st.node.InitAccesses(len(spec.tasks[t]))
		for i, a := range spec.tasks[t] {
			dst[i].Init(&st.node, AccessSpec{
				Addr: unsafe.Pointer(&cells[a.addr].data),
				Type: a.typ,
				Weak: a.weak,
			})
		}
		tasks[t] = st
		sys.Register(&root.node, &st.node, workers)
	}

	deadline := time.Now().Add(30 * time.Second)
	for completed.Load() < int64(len(tasks)) {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			return fmt.Errorf("deadlock: %d/%d tasks completed after 30s",
				completed.Load(), len(tasks))
		}
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()

	// Final state: version = declared exclusive count, exactly once.
	// Only accesses with an expectation (non-weak, non-alias) bump it.
	wantVer := make([]int, spec.cells)
	for t, accs := range spec.tasks {
		for i, a := range accs {
			if exps[t][i] != nil && a.typ != Read {
				wantVer[a.addr]++
			}
		}
	}
	for a := range cells {
		if got := int(cells[a].ver.Load()); got != wantVer[a] {
			violate("cell %d final version %d, want %d", a, got, wantVer[a])
		}
	}
	vmu.Lock()
	defer vmu.Unlock()
	if len(violations) > 0 {
		return fmt.Errorf("oracle violations:\n  %s", strings.Join(violations, "\n  "))
	}
	return nil
}

// failsRepeatedly re-runs a candidate spec a few times: concurrent
// failures are probabilistic, so shrinking only keeps reductions whose
// failure still reproduces.
func failsRepeatedly(kind string, spec stressSpec, seed int64, tries int) error {
	for i := 0; i < tries; i++ {
		if err := stressRun(kind, spec, seed+int64(i)); err != nil {
			return err
		}
	}
	return nil
}

// shrinkSpec greedily removes tasks while the failure reproduces,
// returning a (locally) minimal failing spec for the report.
func shrinkSpec(kind string, spec stressSpec, seed int64) stressSpec {
	budget := 120
	for changed := true; changed && budget > 0; {
		changed = false
		for i := 0; i < len(spec.tasks) && budget > 0; i++ {
			cand := stressSpec{cells: spec.cells}
			cand.tasks = append(cand.tasks, spec.tasks[:i]...)
			cand.tasks = append(cand.tasks, spec.tasks[i+1:]...)
			budget--
			if failsRepeatedly(kind, cand, seed, 3) != nil {
				spec = cand
				changed = true
				break
			}
		}
	}
	return spec
}

// TestDifferentialStress is the suite entry point: stressRounds random
// graphs (see stress_mode_*_test.go for the per-mode round counts),
// each run through both dependency systems under the oracle. On
// failure it reports the seed and a shrunk reproduction spec.
func TestDifferentialStress(t *testing.T) {
	rounds := stressRounds
	if testing.Short() {
		rounds = stressRounds / 4
		if rounds < 20 {
			rounds = 20
		}
	}
	baseSeed := int64(0x5eed_03) // bump to re-roll the whole suite
	for round := 0; round < rounds; round++ {
		seed := baseSeed + int64(round)
		spec := genStressSpec(rand.New(rand.NewSource(seed)))
		for _, kind := range systems() {
			if err := stressRun(kind, spec, seed); err != nil {
				min := shrinkSpec(kind, spec, seed)
				t.Fatalf("seed %d, %s: %v\nminimal failing spec:\n%s", seed, kind, err, min)
			}
		}
	}
}
