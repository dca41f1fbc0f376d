package core

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// schedKindsUnderStress returns the scheduler designs the priority
// stress tests exercise. The CI stress matrix pins one design per job
// through REPRO_STRESS_SCHED ("sync", "central", "worksteal",
// "blocking"), mirroring REPRO_STRESS_DEPS; locally the two designs
// with distinct priority machinery run (blocking shares the central
// policy path) plus the work-stealing baseline, which ignores
// priorities and deadlines: the suites assert safety, never order, so
// they must hold there unchanged.
func schedKindsUnderStress() []SchedulerKind {
	switch os.Getenv("REPRO_STRESS_SCHED") {
	case "sync":
		return []SchedulerKind{SchedSyncDTLock}
	case "central":
		return []SchedulerKind{SchedCentralPTLock}
	case "worksteal":
		return []SchedulerKind{SchedWorkStealing}
	case "blocking":
		return []SchedulerKind{SchedBlocking}
	}
	return []SchedulerKind{SchedSyncDTLock, SchedCentralPTLock, SchedWorkStealing}
}

func (k SchedulerKind) testName() string {
	switch k {
	case SchedCentralPTLock:
		return "central"
	case SchedBlocking:
		return "blocking"
	case SchedWorkStealing:
		return "worksteal"
	}
	return "sync"
}

// TestPriorityRespectsDependencies pins the core contract: a
// MaxPriority task still waits for its low-priority predecessor. Both
// tasks are queued while the single worker is parked in a gate task,
// so the scheduler sees them together and the only thing keeping the
// order correct is the dependency chain.
func TestPriorityRespectsDependencies(t *testing.T) {
	for _, sk := range schedKindsUnderStress() {
		t.Run(sk.testName(), func(t *testing.T) {
			rt := New(Config{Workers: 1, Scheduler: sk})
			defer rt.Close()
			release := make(chan struct{})
			gate := submitAny(rt, func(*Ctx) (any, error) {
				<-release
				return nil, nil
			})
			var x float64
			var aDone atomic.Bool
			a := submitAny(rt, func(*Ctx) (any, error) {
				x = 42
				aDone.Store(true)
				return nil, nil
			}, Out(&x))
			var sawPredecessor atomic.Bool
			b := submitAny(rt, func(*Ctx) (any, error) {
				sawPredecessor.Store(aDone.Load() && x == 42)
				return nil, nil
			}, In(&x), Priority(MaxPriority))
			close(release)
			for _, h := range []*anyFuture{gate, a, b} {
				if _, err := h.Wait(nil); err != nil {
					t.Fatal(err)
				}
			}
			if !sawPredecessor.Load() {
				t.Fatal("high-priority successor ran before its low-priority predecessor")
			}
		})
	}
}

// TestPriorityBypassYieldsToQueuedHigher pins the successor-bypass
// gate: with a MaxPriority task queued, a released low-priority
// immediate successor must go through the scheduler (where the
// priority policy orders the two) instead of jumping the queue in the
// worker's bypass slot. One worker, fully sequenced, so the execution
// order is deterministic.
func TestPriorityBypassYieldsToQueuedHigher(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer rt.Close()
	var mu sync.Mutex
	var order []string
	record := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	var a float64
	queued := make(chan struct{})
	// t1 holds the worker; its completion releases s (the bypass
	// candidate). q is queued at MaxPriority while t1 runs.
	t1 := submitAny(rt, func(*Ctx) (any, error) {
		<-queued
		return nil, nil
	}, InOut(&a))
	s := submitAny(rt, func(*Ctx) (any, error) {
		record("successor")
		return nil, nil
	}, InOut(&a))
	q := submitAny(rt, func(*Ctx) (any, error) {
		record("interactive")
		return nil, nil
	}, Priority(MaxPriority))
	close(queued) // q's registration completed: it is queued at level 3
	for _, h := range []*anyFuture{t1, s, q} {
		if _, err := h.Wait(nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(order) != 2 || order[0] != "interactive" {
		t.Fatalf("execution order %v; want the queued MaxPriority task before the bypassed successor", order)
	}
}

// TestPriorityStarvationBounded pins the anti-starvation bound
// end-to-end: under a sustained stream of MaxPriority tasks (the
// feeder keeps a window outstanding for the whole test), a batch of
// level-0 tasks must still complete — the courtesy slot guarantees
// bounded waiting, on every scheduler design.
func TestPriorityStarvationBounded(t *testing.T) {
	for _, sk := range schedKindsUnderStress() {
		t.Run(sk.testName(), func(t *testing.T) {
			rt := New(Config{Workers: 2, Scheduler: sk})
			defer rt.Close()

			stop := make(chan struct{})
			var feederDone sync.WaitGroup
			var interactiveRan atomic.Int64
			// Feeder: keep several MaxPriority tasks outstanding until
			// told to stop.
			const feedWindow = 8
			feederDone.Add(feedWindow)
			for w := 0; w < feedWindow; w++ {
				go func() {
					defer feederDone.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						h := submitAny(rt, func(*Ctx) (any, error) {
							interactiveRan.Add(1)
							return nil, nil
						}, Priority(MaxPriority))
						h.Wait(nil)
					}
				}()
			}

			const batch = 50
			handles := make([]*anyFuture, batch)
			for i := range handles {
				handles[i] = submitAny(rt, func(*Ctx) (any, error) { return nil, nil })
			}
			done := make(chan struct{})
			go func() {
				for _, h := range handles {
					h.Wait(nil)
				}
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Errorf("batch tasks starved: not all of %d completed under sustained "+
					"MaxPriority load (%d interactive tasks ran)", batch, interactiveRan.Load())
			}
			close(stop)
			feederDone.Wait()
			if t.Failed() {
				t.FailNow()
			}
		})
	}
}

// TestPriorityWithTaskloopsStress runs level-0 work-sharing loops
// concurrently with a MaxPriority submission stream: the priority
// policy ordering level-0 steal descriptors behind elevated tasks, and
// the stealer claim-yield, must not lose descriptors, skip iterations,
// or strand handles, on any scheduler design.
func TestPriorityWithTaskloopsStress(t *testing.T) {
	for _, sk := range schedKindsUnderStress() {
		t.Run(sk.testName(), func(t *testing.T) {
			rt := New(Config{Workers: 4, Scheduler: sk})
			defer rt.Close()
			const iters = 50_000
			var sum atomic.Int64
			loopDone := make(chan error, 1)
			go func() {
				loopDone <- runLoop(rt, 0, iters, 64, func(_ *Ctx, lo, hi int) {
					s := 0
					for i := lo; i < hi; i++ {
						s += i
					}
					sum.Add(int64(s))
				})
			}()
			var interactive atomic.Int64
			var handles []*anyFuture
			for i := 0; i < 200; i++ {
				handles = append(handles, submitAny(rt, func(*Ctx) (any, error) {
					interactive.Add(1)
					return nil, nil
				}, Priority(MaxPriority)))
			}
			for _, h := range handles {
				if _, err := h.Wait(nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := <-loopDone; err != nil {
				t.Fatal(err)
			}
			if want := int64(iters) * (iters - 1) / 2; sum.Load() != want {
				t.Fatalf("loop sum %d, want %d (lost or duplicated chunks)", sum.Load(), want)
			}
			if interactive.Load() != 200 {
				t.Fatalf("interactive tasks ran %d times, want 200", interactive.Load())
			}
			if n := rt.LiveTasks(); n != 0 {
				t.Fatalf("LiveTasks = %d", n)
			}
		})
	}
}

// --- Batched service must not reorder across priority levels ---

// runBatchForTests mirrors sched.Sync's run-buffer size: the tests below
// only need "a backlog of several buffers".
const runBatchForTests = 16

// TestRunBufferYieldsToElevated pins batched service against the
// priority dimension: a worker part-way through its run buffer must not
// start another buffered level-0 task once an elevated task is queued.
// Task 3 is known to run out of a buffer (whoever pops task 0 over this
// backlog buffers 1..16 with it). On one worker, task 3 spawns the
// elevated task itself and returns. On two, worker B is held inside
// task 3 while the root, on worker A, spawns the elevated task from the
// other thread, lets B go and stays out of the scheduler until the
// elevated task has started — so B is the only poller, and a worker
// that holds a claimed task while it is descheduled cannot blur the
// order. Either way the elevated task must be the very next to start.
// Without the runtime-wide elevated gate on buffer consumption the
// worker finishes its buffer first: thirteen tasks.
func TestRunBufferYieldsToElevated(t *testing.T) {
	const n = 8 * runBatchForTests
	cases := []struct {
		name    string
		workers int
		edf     bool
	}{
		{"priority/1worker", 1, false},
		{"priority/2workers", 2, false},
		{"deadline/1worker", 1, true},
		{"deadline/2workers", 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for round := 0; round < 20; round++ {
				// A runtime per round: over one runtime's life every
				// courtesyInterval-th elevated pop over waiting level-0
				// work rightly yields to it.
				rt := New(Config{Workers: tc.workers, EDF: tc.edf})
				var seq, spawnedAt, elevatedAt atomic.Int64
				var held, queued, midBuffer, release atomic.Bool
				starts := make([]int64, n)
				spawnElevated := func(c *Ctx) {
					specs := []AccessSpec{Priority(MaxPriority)}
					if tc.edf {
						specs = append(specs, Deadline(NowNS()+int64(time.Millisecond)))
					}
					c.Spawn(func(*Ctx) { elevatedAt.Store(seq.Add(1)) }, specs...)
					spawnedAt.Store(seq.Load())
				}
				err := rt.Run(func(c *Ctx) {
					if tc.workers > 1 {
						// Hold worker B until the backlog stands, so it takes
						// task 3 as part of a batch.
						c.Spawn(func(*Ctx) {
							held.Store(true)
							for !queued.Load() {
								runtime.Gosched()
							}
						})
						for !held.Load() {
							runtime.Gosched()
						}
					}
					for i := 0; i < n; i++ {
						c.Spawn(func(cc *Ctx) {
							starts[i] = seq.Add(1)
							switch {
							case i != 3:
							case tc.workers == 1:
								spawnElevated(cc)
							default:
								midBuffer.Store(true)
								for !release.Load() {
									runtime.Gosched()
								}
							}
						})
					}
					queued.Store(true)
					if tc.workers > 1 {
						for !midBuffer.Load() {
							runtime.Gosched()
						}
						spawnElevated(c)
						release.Store(true)
						for elevatedAt.Load() == 0 {
							runtime.Gosched()
						}
					}
					c.Taskwait()
				})
				rt.Close()
				if err != nil {
					t.Fatal(err)
				}
				between := 0
				for _, at := range starts {
					if at > spawnedAt.Load() && at < elevatedAt.Load() {
						between++
					}
				}
				if between != 0 {
					t.Fatalf("round %d: %d level-0 tasks started between the elevated task's spawn and its start",
						round, between)
				}
			}
		})
	}
}

// TestRunBufferPromotedDuplicate: a task that sits in a worker's run
// buffer when priority inheritance promotes it runs from the promoted
// duplicate — on another worker, while the buffer's owner is blocked —
// and the buffered copy dissolves in schedTook when its owner gets to
// it: one execution, counts exact. Worker B is held in a gate task until
// the backlog stands, then pops task 0 (which blocks until the promoted
// task has run) with tasks 1..16 in its buffer, P among them.
func TestRunBufferPromotedDuplicate(t *testing.T) {
	const n, pIndex = 6 * runBatchForTests, 5
	rt := New(Config{Workers: 2})
	defer func() {
		if !t.Failed() {
			rt.Close()
		}
	}()
	var x float64
	var held, queued, blocked, successorSawP atomic.Bool
	var pRuns, others, pWorker, blockedWorker atomic.Int64
	pRan := make(chan struct{})
	watchdog(t, 10*time.Second, others.Load, func() {
		err := rt.Run(func(c *Ctx) {
			c.Spawn(func(*Ctx) {
				held.Store(true)
				for !queued.Load() {
					runtime.Gosched()
				}
			})
			for !held.Load() {
				runtime.Gosched()
			}
			c.Spawn(func(cc *Ctx) {
				blockedWorker.Store(int64(cc.Worker()))
				blocked.Store(true)
				<-pRan
			})
			for i := 1; i < n; i++ {
				if i == pIndex {
					c.Spawn(func(cc *Ctx) {
						pWorker.Store(int64(cc.Worker()))
						pRuns.Add(1)
						close(pRan)
					}, Out(&x))
				} else {
					c.Spawn(func(*Ctx) { others.Add(1) })
				}
			}
			queued.Store(true)
			for !blocked.Load() {
				runtime.Gosched()
			}
			// P is queued (qstate set), buffered by the blocked worker, and
			// this successor's registration promotes it.
			c.Spawn(func(*Ctx) { successorSawP.Store(pRuns.Load() == 1) },
				In(&x), Priority(MaxPriority), Inherit())
			c.Taskwait()
		})
		if err != nil {
			t.Error(err)
		}
	})
	if pRuns.Load() != 1 || others.Load() != n-2 {
		t.Fatalf("promoted task ran %d times, %d of %d others ran", pRuns.Load(), others.Load(), n-2)
	}
	if pWorker.Load() == blockedWorker.Load() {
		t.Fatalf("promoted task ran on worker %d, which was blocked holding its buffered copy", pWorker.Load())
	}
	if !successorSawP.Load() {
		t.Fatal("the inheriting successor ran before its promoted predecessor")
	}
	if s := rt.Stats(); s.Pending != 0 || rt.LiveTasks() != 0 {
		t.Fatalf("pending %d, live %d at quiescence: the dissolved copy was miscounted", s.Pending, rt.LiveTasks())
	}
}

// --- Differential stress: priorities must not change what runs ---

// priSpec is one randomized graph: tasks register in order, each with
// distinct-address accesses and a priority level; the same spec runs
// priority-tagged and priority-stripped and must behave identically
// under a per-address happens-before oracle (a compact version of the
// internal/deps differential oracle: readers overlap readers only,
// exclusives are mutually exclusive, every access observes exactly the
// address version its chain position entitles it to).
type priSpec struct {
	cells int
	tasks []priTask
}

type priTask struct {
	accs []priAccess
	pri  int
	// dl is a relative deadline in nanoseconds (0 = none) and inherit
	// the inheritance clause; both are zero in the base priority suite
	// and randomized by genDeadlineSpec. Like priorities, they are
	// scheduling hints only and must never change what runs.
	dl      int64
	inherit bool
}

type priAccess struct {
	addr int
	typ  depsAccessType
}

type depsAccessType uint8

const (
	priIn depsAccessType = iota
	priOut
	priInOut
	priCommutative
)

func genPriSpec(r *rand.Rand) priSpec {
	spec := priSpec{cells: 2 + r.Intn(5)}
	n := 1 + r.Intn(30)
	for t := 0; t < n; t++ {
		na := 1 + r.Intn(3)
		if na > spec.cells {
			na = spec.cells
		}
		perm := r.Perm(spec.cells)[:na] // distinct addresses per task
		task := priTask{pri: r.Intn(4)}
		for _, addr := range perm {
			typ := depsAccessType(r.Intn(4))
			task.accs = append(task.accs, priAccess{addr: addr, typ: typ})
		}
		spec.tasks = append(spec.tasks, task)
	}
	return spec
}

// genDeadlineSpec extends a random priority spec with random deadlines
// (about half the tasks, microsecond-scale offsets so many have already
// passed by execution — EDF must tolerate that) and inheritance clauses
// (about a third), for the deadline differential dimension.
func genDeadlineSpec(r *rand.Rand) priSpec {
	spec := genPriSpec(r)
	for i := range spec.tasks {
		if r.Intn(2) == 0 {
			spec.tasks[i].dl = int64(1+r.Intn(1000)) * int64(time.Microsecond)
		}
		if r.Intn(3) == 0 {
			spec.tasks[i].inherit = true
		}
	}
	return spec
}

// priExpectation is the version window an access may observe at body
// time (commutative run members share the run's window).
type priExpectation struct{ lo, hi int }

func computePriExpectations(spec priSpec) [][]*priExpectation {
	type addrState struct {
		excl     int
		runStart int
		inRun    bool
		runMembs []*priExpectation
	}
	st := make([]addrState, spec.cells)
	closeRun := func(s *addrState) {
		for _, e := range s.runMembs {
			e.hi = s.excl - 1
		}
		s.inRun = false
		s.runMembs = nil
	}
	exps := make([][]*priExpectation, len(spec.tasks))
	for t, task := range spec.tasks {
		exps[t] = make([]*priExpectation, len(task.accs))
		for i, a := range task.accs {
			s := &st[a.addr]
			switch a.typ {
			case priIn:
				closeRun(s)
				exps[t][i] = &priExpectation{lo: s.excl, hi: s.excl}
			case priOut, priInOut:
				closeRun(s)
				exps[t][i] = &priExpectation{lo: s.excl, hi: s.excl}
				s.excl++
			case priCommutative:
				if !s.inRun {
					s.inRun = true
					s.runStart = s.excl
				}
				e := &priExpectation{lo: s.runStart}
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

// priCell is one address's oracle state, padded against false sharing.
type priCell struct {
	data    float64
	ver     atomic.Int64
	readers atomic.Int64
	writers atomic.Int64
	_       [24]byte
}

// runPriSpec executes the spec through a full runtime of the given
// scheduler kind, with or without the priority tags, under the oracle.
// It returns the final per-address versions.
//
// With evented set, every second task defers its release through the
// external-event subsystem: the body registers an event and the oracle
// *unwind* (version bump, exclusivity exit) runs in the completion —
// from a plain goroutine or from the timer queue, alternating.
// The oracle then checks deferral for real: if the runtime released
// the task's dependencies at body return instead of at the final
// decrement, a successor would observe an in-flight exclusive or a
// stale version and report a violation.
func runPriSpec(t *testing.T, sk SchedulerKind, spec priSpec, tagged, evented, edf bool) []int64 {
	t.Helper()
	rt := New(Config{Workers: 4, Scheduler: sk, EDF: edf})
	defer rt.Close()
	cells := make([]priCell, spec.cells)
	exps := computePriExpectations(spec)

	var vmu sync.Mutex
	var violations []string
	violate := func(format string, args ...any) {
		vmu.Lock()
		if len(violations) < 5 {
			violations = append(violations, fmt.Sprintf(format, args...))
		}
		vmu.Unlock()
	}

	ran := make([]atomic.Int32, len(spec.tasks))
	err := rt.Run(func(c *Ctx) {
		for ti := range spec.tasks {
			ti := ti
			task := spec.tasks[ti]
			specs := make([]AccessSpec, 0, len(task.accs)+1)
			for _, a := range task.accs {
				p := &cells[a.addr].data
				switch a.typ {
				case priIn:
					specs = append(specs, In(p))
				case priOut:
					specs = append(specs, Out(p))
				case priInOut:
					specs = append(specs, InOut(p))
				case priCommutative:
					specs = append(specs, Commutative(p))
				}
			}
			if tagged {
				specs = append(specs, Priority(task.pri))
				if task.dl != 0 {
					specs = append(specs, Deadline(NowNS()+task.dl))
				}
				if task.inherit {
					specs = append(specs, Inherit())
				}
			}
			c.Spawn(func(cc *Ctx) {
				if ran[ti].Add(1) != 1 {
					violate("t%d executed more than once", ti)
				}
				for i, a := range task.accs {
					cell := &cells[a.addr]
					excl := a.typ != priIn
					if excl {
						if w := cell.writers.Add(1); w != 1 {
							violate("t%d c%d: %d concurrent exclusive bodies", ti, a.addr, w)
						}
						if r := cell.readers.Load(); r != 0 {
							violate("t%d c%d: exclusive overlaps %d readers", ti, a.addr, r)
						}
					} else {
						cell.readers.Add(1)
						if w := cell.writers.Load(); w != 0 {
							violate("t%d c%d: reader overlaps %d exclusives", ti, a.addr, w)
						}
					}
					if v := int(cell.ver.Load()); v < exps[ti][i].lo || v > exps[ti][i].hi {
						violate("t%d c%d: observed version %d, want [%d,%d]",
							ti, a.addr, v, exps[ti][i].lo, exps[ti][i].hi)
					}
				}
				for i := 0; i < 30; i++ {
					if i&7 == 0 {
						runtime.Gosched()
					}
				}
				unwind := func() {
					for i := len(task.accs) - 1; i >= 0; i-- {
						cell := &cells[task.accs[i].addr]
						if task.accs[i].typ != priIn {
							cell.ver.Add(1)
							cell.writers.Add(-1)
						} else {
							cell.readers.Add(-1)
						}
					}
				}
				if evented && ti%2 == 0 {
					if ti%4 == 0 {
						ev := cc.Events()
						ev.Add(1)
						go func() {
							runtime.Gosched()
							unwind()
							ev.Done()
						}()
					} else {
						cc.AfterFunc(time.Duration(ti%3)*50*time.Microsecond, unwind)
					}
				} else {
					unwind()
				}
			}, specs...)
		}
		c.Taskwait()
	})
	if err != nil {
		t.Fatal(err)
	}
	for ti := range ran {
		if ran[ti].Load() != 1 {
			violate("t%d ran %d times", ti, ran[ti].Load())
		}
	}
	vmu.Lock()
	defer vmu.Unlock()
	if len(violations) > 0 {
		t.Fatalf("sched=%s tagged=%v evented=%v: oracle violations:\n  %s\nspec: %+v",
			sk.testName(), tagged, evented, violations[0], spec)
	}
	final := make([]int64, spec.cells)
	for a := range cells {
		final[a] = cells[a].ver.Load()
	}
	return final
}

// TestPriorityDifferentialStress runs randomized graphs with random
// per-task priorities through every scheduler design, twice each —
// priority-tagged and priority-stripped — under the happens-before
// oracle (the core-level sibling of the internal/deps differential
// suite). Priorities may only reorder ready tasks: both runs must be
// oracle-clean, run every task exactly once, and agree on the final
// per-address versions.
func TestPriorityDifferentialStress(t *testing.T) {
	rounds := 30
	if testing.Short() {
		rounds = 10
	}
	baseSeed := int64(0x9121) // bump to re-roll the whole suite
	for _, sk := range schedKindsUnderStress() {
		t.Run(sk.testName(), func(t *testing.T) {
			for round := 0; round < rounds; round++ {
				seed := baseSeed + int64(round)
				spec := genPriSpec(rand.New(rand.NewSource(seed)))
				plain := runPriSpec(t, sk, spec, false, false, false)
				tagged := runPriSpec(t, sk, spec, true, false, false)
				for a := range tagged {
					if tagged[a] != plain[a] {
						t.Fatalf("seed %d: final version of cell %d differs: tagged %d vs stripped %d",
							seed, a, tagged[a], plain[a])
					}
				}
			}
		})
	}
}

// genWideSpec is a spec shaped to keep a level-0 backlog of several run
// buffers standing: hundreds of tasks, mostly readers of a few dozen
// cells (so most are ready at once), one in eight elevated — half of
// those inheriting, so promotions hit predecessors that sit in a
// worker's run buffer.
func genWideSpec(r *rand.Rand) priSpec {
	spec := priSpec{cells: 48}
	for t := 0; t < 400; t++ {
		task := priTask{}
		if r.Intn(8) == 0 {
			task.pri = 1 + r.Intn(3)
			task.inherit = r.Intn(2) == 0
		}
		typ := priIn
		if r.Intn(4) == 0 {
			typ = depsAccessType(r.Intn(4))
		}
		task.accs = []priAccess{{addr: r.Intn(spec.cells), typ: typ}}
		spec.tasks = append(spec.tasks, task)
	}
	return spec
}

// TestRunBufferDifferentialStress puts batched service under the same
// oracle: wide graphs (genWideSpec) run tagged — priorities and
// inheritance — against the stripped reference.
// Buffering and reclaiming may only reorder ready tasks: every task runs
// exactly once (a promoted task's buffered copy must dissolve, not run),
// the oracle stays clean and the final versions agree. No EDF here: the
// heap's read of a stale duplicate's deadline is ROADMAP's open race
// item, TestDeadlineDifferentialStress's to reproduce, and this suite
// has to stay clean under -race -count=10.
func TestRunBufferDifferentialStress(t *testing.T) {
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	baseSeed := int64(0x5b18) // bump to re-roll the whole suite
	for _, sk := range schedKindsUnderStress() {
		t.Run(sk.testName(), func(t *testing.T) {
			for round := 0; round < rounds; round++ {
				seed := baseSeed + int64(round)
				spec := genWideSpec(rand.New(rand.NewSource(seed)))
				plain := runPriSpec(t, sk, spec, false, false, false)
				tagged := runPriSpec(t, sk, spec, true, false, false)
				for a := range tagged {
					if tagged[a] != plain[a] {
						t.Fatalf("seed %d: final version of cell %d differs: tagged %d vs stripped %d",
							seed, a, tagged[a], plain[a])
					}
				}
			}
		})
	}
}

// TestDeadlineDifferentialStress is the EDF/inheritance dimension of
// the differential suite: randomized graphs whose tasks carry random
// priorities, random (often already-expired) deadlines and random
// inheritance clauses run on an EDF-enabled runtime of every scheduler
// design, against the same spec fully stripped on a plain runtime.
// Deadlines order and inheritance promotes only *ready* tasks, so both
// runs must be oracle-clean, run every task exactly once, and agree on
// the final per-address versions.
func TestDeadlineDifferentialStress(t *testing.T) {
	rounds := 30
	if testing.Short() {
		rounds = 10
	}
	baseSeed := int64(0x3177) // bump to re-roll the whole suite
	for _, sk := range schedKindsUnderStress() {
		t.Run(sk.testName(), func(t *testing.T) {
			for round := 0; round < rounds; round++ {
				seed := baseSeed + int64(round)
				spec := genDeadlineSpec(rand.New(rand.NewSource(seed)))
				plain := runPriSpec(t, sk, spec, false, false, false)
				tagged := runPriSpec(t, sk, spec, true, false, true)
				for a := range tagged {
					if tagged[a] != plain[a] {
						t.Fatalf("seed %d: final version of cell %d differs: deadline-tagged %d vs stripped %d",
							seed, a, tagged[a], plain[a])
					}
				}
			}
		})
	}
}
