package deps

import (
	"sync/atomic"
	"unsafe"

	"repro/internal/asm"
)

// Atomic State Machine flags of one access (paper §2.2). Flags are
// set-once: the only operation on an access's state is the delivery of a
// message that merges new flags, so the state machine is acyclic and
// every propagation action fires exactly once (asm.Transitioned).
const (
	// flagReadSat: every predecessor that writes the address has
	// released; read-type accesses may execute.
	flagReadSat asm.Flags = 1 << iota
	// flagWriteSat: every predecessor has fully released; exclusive
	// accesses may execute.
	flagWriteSat
	// flagFinished: the owning task's body has completed.
	flagFinished
	// flagChildrenDone: every child access registered under this access
	// has released (trivially true for accesses without children).
	flagChildrenDone
	// flagHasSuccessor: the successor pointer has been installed.
	flagHasSuccessor
	// flagHasChild: the child pointer has been installed.
	flagHasChild
	// flagTailClosed: the access is a chain tail that no successor will
	// replace (its parent's domain closed). An access gets at most one
	// of flagHasSuccessor and flagTailClosed.
	flagTailClosed
)

// flagsReleased is the conjunction after which an access no longer
// constrains anything upstream: satisfied, finished, and its nested
// accesses are done. Releasing forwards full satisfiability to the
// successor and notifies the parent access across nesting levels.
const flagsReleased = flagReadSat | flagWriteSat | flagFinished | flagChildrenDone

// Access is one data access of a task (paper Listing 1): the address,
// the access type, the ASM flag word, and the successor/child links that
// form the binary trees of Figure 1.
//
// The struct is 80 bytes — ten words, pinned by TestAccessLayout — so that
// InlineAccessCap of them and as many predecessor slots fit the task
// shell's allocator size class (core.TestTaskLayout). The narrow fields
// share the child guard's word: an access gains a field only by giving
// up an inline slot.
type Access struct {
	state asm.State

	addr   unsafe.Pointer
	length int

	node *Node

	// succ is the next access to the same address at the same nesting
	// level; child is the first access to the same address one nesting
	// level below. Both are written before the corresponding Has* flag
	// is delivered, which orders the publication.
	succ  atomic.Pointer[Access]
	child atomic.Pointer[Access]

	// parentAccess is the access one nesting level above that this
	// access was registered under, if any. Releasing decrements its
	// childGuard.
	parentAccess *Access

	// group is the reduction or commutative run this access belongs to
	// on either dependency system, nil for ordinary accesses; the run's
	// token and slots are read through it (token, Node.ReductionBuffer).
	group *group

	// lentry is the locking baseline's chain entry for this access.
	lentry *lentry

	// childGuard counts live child accesses, minus one once the owning
	// task has finished: each child's release and the task's finish
	// decrement it, and the decrement that takes it below zero — the
	// last of them, whichever it is — delivers flagChildrenDone exactly
	// once. Counting the owner's guard as the step below zero rather
	// than as an initial one lets the zero value be the initial state.
	childGuard atomic.Int32

	typ AccessType
	op  ReductionOp

	// marks holds the mark* bits below. They are written by the owning
	// task's registering thread before the access is published to any
	// other thread, and only read afterwards — which is what lets three
	// booleans share one byte without atomics.
	marks uint8

	// succReadCompat records, at link time, that this access and its
	// successor are both reads, so read satisfiability can be forwarded
	// early (before this access finishes). Unlike the marks it is
	// written by the *successor's* registrar while other threads read
	// this access's other fields, so it keeps a byte of its own.
	succReadCompat bool
}

const (
	// markWeak: the access anchors child chains without gating the
	// task's own execution (OmpSs-2 weak in/out/inout).
	markWeak uint8 = 1 << iota
	// markAlias: a duplicate access (same task, same address); aliases
	// do not participate in the chain.
	markAlias
	// markGroupHead: the first member of its group, which receives
	// satisfiability from the chain predecessor.
	markGroupHead
)

func (a *Access) weak() bool  { return a.marks&markWeak != 0 }
func (a *Access) alias() bool { return a.marks&markAlias != 0 }

// blocking reports whether a counts in its task's pending count: every
// access but a reduction (reductions execute eagerly into privatized
// storage) and a weak one, except that a commutative access always
// counts.
func (a *Access) blocking() bool {
	return a.typ == Commutative || a.typ != Reduction && !a.weak()
}

// token returns the commutative execution token shared by the access's
// run, nil for every other access (aliases included: they join no run).
func (a *Access) token() *atomic.Int32 {
	if a.typ == Commutative && a.group != nil {
		return &a.group.token
	}
	return nil
}

// Init fills the access from its spec, overwriting whatever a previous
// incarnation of the storage left. A plain struct assignment and plain
// stores: the storage is fresh or quiescent (pin count zero, see
// Node.Reset), so no other thread can be reading it, and the access is
// published only by what registration does afterwards — the
// predecessor's succ.Store and the flag delivery that follows it, or
// the single-writer domain map.
func (a *Access) Init(n *Node, s AccessSpec) {
	*a = Access{} // zeroed in place; a literal with fields is built on the stack and copied
	a.addr, a.length, a.node = s.Addr, s.Len, n
	a.typ, a.op = s.Type, s.Op
	if s.Weak {
		a.marks = markWeak
	}
}

// Addr returns the dependency address of the access.
func (a *Access) Addr() unsafe.Pointer { return a.addr }

// Type returns the access type.
func (a *Access) Type() AccessType { return a.typ }
