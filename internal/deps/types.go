// Package deps implements the data-dependency system of the task-based
// runtime: the paper's wait-free implementation built on Atomic State
// Machines (§2), and the fine-grained-locking baseline it replaced (the
// "w/o wait-free dependencies" variant of the evaluation, §6).
//
// Dependencies follow the OmpSs-2 model: a task declares *accesses*
// (address + access type); accesses to the same address form chains with
// successor links between sibling tasks and child links across nesting
// levels (paper Fig. 1). Reductions and commutative accesses are access
// types, not task-group constructs, matching OmpSs-2 rather than OpenMP.
package deps

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// AccessType classifies one data access of a task.
type AccessType uint8

const (
	// Read allows concurrent execution with other reads of the address.
	Read AccessType = iota
	// Write requires exclusive access.
	Write
	// ReadWrite requires exclusive access (OmpSs-2 inout).
	ReadWrite
	// Reduction privatizes the address per worker; consecutive reduction
	// tasks of the same operation run concurrently and their partial
	// results are combined when the reduction domain closes.
	Reduction
	// Commutative grants mutual exclusion without ordering: consecutive
	// commutative tasks may run in any order but never simultaneously.
	Commutative
)

// String returns the OmpSs-2 clause name of the access type.
func (t AccessType) String() string {
	switch t {
	case Read:
		return "in"
	case Write:
		return "out"
	case ReadWrite:
		return "inout"
	case Reduction:
		return "reduction"
	case Commutative:
		return "commutative"
	}
	return "unknown"
}

// exclusive reports whether the access type requires full exclusivity
// with respect to its chain predecessors before the task may run.
func (t AccessType) exclusive() bool { return t == Write || t == ReadWrite }

// ReductionOp is the combination operation of a reduction access.
type ReductionOp uint8

const (
	// OpSum combines partial results by addition (identity 0).
	OpSum ReductionOp = iota
	// OpMax combines partial results by maximum (identity -Inf).
	OpMax
	// OpMin combines partial results by minimum (identity +Inf).
	OpMin
)

// AccessSpec describes one access at task-creation time. Addr identifies
// the dependency (OmpSs-2 matches accesses by address); Len is the number
// of float64 elements covered, used only by reductions to size the
// privatized buffers.
type AccessSpec struct {
	Addr unsafe.Pointer
	Len  int
	Type AccessType
	Op   ReductionOp
	// Weak marks an OmpSs-2 weak access: the task does not itself touch
	// the data, so the access never blocks the task's execution, but it
	// anchors the dependency chains of the task's children at this
	// nesting level (paper §2.1: "dependency domains of tasks on
	// different nesting levels can share dependencies"). Weak accesses
	// release like strong ones: successors still wait for the task's
	// children registered under them.
	Weak bool
}

// ReadyFn is invoked by a dependency system exactly once per task, when
// the task's last blocking access becomes satisfied. It may be called
// from any worker, including in the middle of Register (tasks with no
// blocking predecessors) and Unregister (successors becoming ready).
// The worker argument is the index of the calling worker, for routing
// the ready task to that worker's scheduler insertion queue.
type ReadyFn func(n *Node, worker int)

// System is a dependency-tracking implementation. Register must be
// called by the thread executing the parent task (sibling registration is
// single-writer per domain, as in Nanos6); Unregister and CloseDomain may
// be called from the worker that ran the task. The worker index selects
// thread-local structures (message mailboxes) and must be unique per
// concurrent caller. A run's slots and token are read through the Node.
type System interface {
	// Register links every access of n into the dependency graph of
	// parent's domain and arms readiness tracking. It must be called
	// exactly once per task, before the task can run.
	Register(parent, n *Node, worker int)
	// RegisterRoot is Register against a sharded root domain: each
	// access of n joins the chain of its address's shard. The caller
	// must hold a lease of d covering n's accesses (RootDomain.AcquireMask)
	// and pass the lease's submitter-slot worker index, which keeps
	// per-shard registration single-writer while unrelated root
	// submissions proceed in parallel on other shards.
	RegisterRoot(d *RootDomain, n *Node, worker int)
	// Unregister marks n's task finished and propagates satisfiability
	// to successor and parent accesses (paper Definition 2.4).
	Unregister(n *Node, worker int)
	// CloseDomain closes any open reduction or commutative groups in n's
	// domain so trailing reductions can combine. Called at taskwait.
	CloseDomain(n *Node, worker int)
	// Name identifies the implementation in traces and benchmarks.
	Name() string
	// RecordPreds turns predecessor recording (Node.VisitPreds) on for
	// every later registration, for good. The runtime calls it when it
	// creates its first priority-inheritance donor, on the creating
	// thread and before that task registers.
	RecordPreds()
}

// donorFlag is the sticky switch behind System.RecordPreds. Until a
// runtime has a donor, nothing walks predecessor slots, so no
// registration records one: that saves each linked access a load of
// the predecessor's generation and two atomic stores, and Reset the
// clearing of the slots. Recording then starts with the first donor's
// own registration, so a donor's immediate predecessors are always
// recorded; a transitive walk passes only through tasks registered
// after the first donor was created.
type donorFlag struct{ on atomic.Bool }

// RecordPreds implements System.
func (d *donorFlag) RecordPreds() {
	if !d.on.Load() {
		d.on.Store(true)
	}
}

// InlineAccessCap is the number of accesses a Node stores inline,
// inside the task shell, without a heap allocation: five, the
// five-point stencil's access list (own tile inout, four neighbours
// in), which is the widest any workload kernel here declares. Larger
// access sets overflow to a heap slice whose lifetime is left to the
// garbage collector (see DESIGN.md, "Task lifetime and memory"). The
// value is what fits: InlineAccessCap accesses and predecessor slots
// fill the shell's allocator size class exactly (core.TestTaskLayout).
const InlineAccessCap = 5

// Node is the per-task dependency record, embedded in the runtime's Task
// structure. Payload carries the owning task for the ready callback.
//
// Field order is a performance contract (see core.Task, and
// TestNodeLayout): the header — everything the registration, release
// and recycling of a task with no accesses touches — comes first, the
// four fields its *registration* touches ahead of the ones only release
// and recycling touch; the access storage and predecessor slots, which
// only tasks with accesses use, follow.
type Node struct {
	Payload  any
	Accesses []Access

	// pins counts outstanding reasons the node's access storage may
	// still be dereferenced by another thread: the runtime's shell
	// guard (held from creation to full completion, by a task with
	// accesses only), one per non-alias access until that access has
	// released and — for a plain access — is no longer a domain-map
	// chain tail, and one per undelivered pinned mailbox message
	// targeting an access of this node. The wait-free system maintains
	// the last two (see waitfree.go); the locking baseline maintains
	// none, because it never dereferences an Access after Register
	// returns. The transition to zero means the access storage is
	// quiescent and the shell — inline array included — can be
	// recycled. A node with no accesses gets no message, is never a
	// chain tail and has nothing to guard, so nothing ever pins it and
	// its count stays 0 — unwritten — for its whole incarnation.
	pins atomic.Int32

	// pending counts unsatisfied blocking accesses plus a registration
	// guard; the transition to zero fires ReadyFn.
	pending atomic.Int32

	// gen counts shell reuses; bumped by Reset before the pred slots
	// are cleared, so a walker holding a stale slot observes a
	// generation mismatch instead of promoting an unrelated task.
	gen atomic.Uint32

	// npreds is the registration thread's write cursor into preds
	// (walkers scan the slots); 32 bits so it fills gen's padding and
	// the shell stays in its allocator size class (core.TestTaskLayout).
	npreds int32

	// domain maps address -> chain tail for the children of this task.
	// It is written only by the thread executing this task (the creator
	// of the children), so it needs no lock.
	domain map[unsafe.Pointer]tailEntry

	// ldomain is the equivalent domain map of the locking baseline.
	ldomain map[unsafe.Pointer]*lchain

	// inline is the allocation-free backing store for small access
	// sets; InitAccesses points Accesses at it when the count fits.
	// Because it is embedded in the recycled task shell, its reuse is
	// gated by the pin count above — unlike the overflow slice, which
	// is simply abandoned to the GC at reset.
	inline [InlineAccessCap]Access

	// preds records the node's immediate plain-access chain
	// predecessors at registration time, one slot per recorded
	// predecessor, for the core's priority-inheritance walk (which runs
	// right after registration, on the registering thread, but may
	// chase predecessors-of-predecessors recorded by other threads).
	// Slots are atomics plus a generation snapshot because a recorded
	// predecessor's shell can be recycled and re-registered
	// concurrently with a transitive walk: the walker revalidates the
	// generation and skips recycled shells. Nothing is recorded before
	// the runtime's first donor (System.RecordPreds), and group
	// predecessors (reduction/commutative runs) never are — promotion
	// is best-effort and those tasks are satisfied eagerly anyway.
	preds [InlineAccessCap]predSlot
}

// predSlot is one recorded immediate predecessor: the node pointer and
// the generation it had when recorded.
type predSlot struct {
	n   atomic.Pointer[Node]
	gen atomic.Uint32
}

// recordPred appends p to n's predecessor slots (best-effort: silently
// dropped once the fixed slots are full). Called by the registering
// thread only, and only once the system records predecessors
// (System.RecordPreds).
func (n *Node) recordPred(p *Node) {
	if p == nil || p == n || n.npreds >= InlineAccessCap {
		return
	}
	s := &n.preds[n.npreds]
	s.gen.Store(p.gen.Load())
	s.n.Store(p)
	n.npreds++
}

// VisitPreds calls f for each recorded immediate predecessor whose
// shell generation still matches its recorded snapshot. Best-effort:
// a predecessor recycled between the generation check and f sees only
// atomic operations from f's side (the core promotes via CAS-monotone
// fields), so a lost or spurious promotion is a bounded scheduling
// anomaly, never a memory-safety or exactly-once violation.
func (n *Node) VisitPreds(f func(p *Node)) {
	for i := range n.preds {
		p := n.preds[i].n.Load()
		if p == nil || p.gen.Load() != n.preds[i].gen.Load() {
			continue
		}
		f(p)
	}
}

// tailEntry is the wait-free system's bottom-map entry: the most recent
// access of a chain (or the open group run that currently ends it), plus
// the parent-task access the chain nests under, if any.
type tailEntry struct {
	access *Access
	group  *group
	parent *Access
}

// InitAccesses points n.Accesses at zero-initialized storage for count
// accesses: the node's inline array when it fits (no allocation), a
// fresh heap slice otherwise. The caller then Inits each element.
func (n *Node) InitAccesses(count int) []Access {
	if count <= InlineAccessCap {
		n.Accesses = n.inline[:count]
	} else {
		n.Accesses = make([]Access, count)
	}
	return n.Accesses
}

// Pin adds one reason the node's access storage must not be recycled.
func (n *Node) Pin() { n.pins.Add(1) }

// Unpin drops one such reason and returns the remaining count; zero
// means the storage is quiescent and the shell may be recycled.
func (n *Node) Unpin() int32 { return n.pins.Add(-1) }

// domainRetainCap bounds the domain-map capacity a pooled shell keeps:
// maps up to this size are cleared and reused (clear preserves the
// buckets, so a recycled shell re-registering a similar working set of
// addresses allocates nothing — the steady-state serving path depends
// on this), larger ones are dropped to the garbage collector so a
// one-off wide fan-out does not stay resident in the pool forever.
const domainRetainCap = 64

// Reset prepares a recycled Node for reuse by a new task. It must only
// be called once the node is quiescent (pin count zero; the checked
// build panics otherwise): that is what makes clearing the inline
// accesses safe, and with plain stores — no thread can be reading them.
// Clearing drops their pointers so a pooled shell does not keep dead
// dependency structures reachable (groups with per-worker slot buffers,
// chain links, locking-baseline chains); the next task's Init rewrites
// every field anyway. An overflow slice (when Accesses pointed to heap
// storage) is dropped to the garbage collector wholesale, and domain
// maps are retained empty up to domainRetainCap.
//
// Each header field is written only when its value changes, so the
// reset of an access-free node writes nothing at all and its line stays
// clean in whichever core holds it:
//
//   - pending is already 0 at every reset, because the task was
//     readied; it is stored only if it is not.
//   - gen moves only after an incarnation that had accesses. Only such
//     a node can be a chain tail, so only such a node can be a recorded
//     predecessor; a walker's slot from an earlier incarnation still
//     mismatches, because that incarnation's own reset moved gen.
//   - Accesses and npreds are written only when set.
//
// The domain maps are cleared unconditionally: clear returns at once
// on an empty map.
func (n *Node) Reset() {
	if checked && n.pins.Load() != 0 {
		panic(fmt.Sprintf("deps: Reset of a node holding %d pins", n.pins.Load()))
	}
	if len(n.Accesses) > 0 {
		if &n.Accesses[0] == &n.inline[0] {
			clear(n.Accesses)
		}
		// Payload stays: it names the shell the node is embedded in and
		// recycled with, and the priority-inheritance walk may read it
		// from a recorded predecessor concurrently with this reset.
		n.Accesses = nil
		// Invalidate outstanding pred-slot references to this shell
		// before clearing our own slots: walkers compare against gen
		// first.
		n.gen.Add(1)
	}
	if n.pending.Load() != 0 {
		n.pending.Store(0)
	}
	if n.npreds != 0 {
		for i := range n.preds[:n.npreds] {
			n.preds[i].n.Store(nil)
		}
		n.npreds = 0
	}
	if len(n.domain) <= domainRetainCap {
		clear(n.domain)
	} else {
		n.domain = nil
	}
	if len(n.ldomain) <= domainRetainCap {
		clear(n.ldomain)
	} else {
		n.ldomain = nil
	}
}

// satisfied consumes one pending dependency and fires ready on the last.
func (n *Node) satisfied(ready ReadyFn, worker int) {
	if n.pending.Add(-1) == 0 {
		ready(n, worker)
	}
}

// TryAcquireCommutative attempts to take the execution token of every
// commutative access of n. On failure it rolls back and returns false;
// the caller should re-enqueue the task. Tokens are assigned by the
// dependency system during Register.
func (n *Node) TryAcquireCommutative() bool {
	for i := range n.Accesses {
		if tok := n.Accesses[i].token(); tok != nil && !tok.CompareAndSwap(0, 1) {
			for j := 0; j < i; j++ {
				if t := n.Accesses[j].token(); t != nil {
					t.Store(0)
				}
			}
			return false
		}
	}
	return true
}

// ReleaseCommutative returns every commutative token held by n.
func (n *Node) ReleaseCommutative() {
	for i := range n.Accesses {
		if t := n.Accesses[i].token(); t != nil {
			t.Store(0)
		}
	}
}

// ReductionBuffer returns worker's privatized partial-result buffer for
// n's reduction access on addr, on either dependency system.
func (n *Node) ReductionBuffer(addr unsafe.Pointer, worker int) []float64 {
	for i := range n.Accesses {
		a := &n.Accesses[i]
		if a.addr == addr && a.typ == Reduction && a.group != nil {
			return a.group.slot(worker)
		}
	}
	panic(fmt.Sprintf("deps: no reduction access on %p", addr))
}

// HasCommutative reports whether any access of n needs an execution token.
func (n *Node) HasCommutative() bool {
	for i := range n.Accesses {
		if n.Accesses[i].token() != nil {
			return true
		}
	}
	return false
}
