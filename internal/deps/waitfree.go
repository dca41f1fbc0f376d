package deps

import (
	"fmt"
	"unsafe"

	"repro/internal/asm"
)

// mailbox is the per-worker container of undelivered data-access messages
// (paper Fig. 2), specialized to accesses.
type mailbox struct {
	asm.Mailbox[*Access]
}

// push enqueues a message and pins the target's node for the message's
// lifetime: an undelivered message is an outstanding reference to the
// access, so the access storage (the task shell's inline array) must
// not be recycled until the delivery — and the evaluation it triggers —
// has finished. drain takes the matching unpin. Pushers are always in
// a position where the target is provably alive: they are mid-
// evaluation of a pinned access, registering under a pinned chain
// tail, or operating on their own still-guarded task.
//
// Only messages between members of one reduction or commutative run
// (group.go) and satisfiability sent to a weak access (pushSat) go
// through push; every other message is held (pushHeld). A replaced
// chain tail's flagHasSuccessor is no message at all: the registrar
// delivers it in place (linkAfterAccess).
func (mb *mailbox) push(a *Access, f asm.Flags) {
	a.node.Pin()
	mb.Push(a, f)
}

// msgHeld marks a message pushed without a pin; it rides in the flag
// word above the ASM's flags and is masked off before delivery.
const msgHeld asm.Flags = 1 << 63

// pushHeld enqueues a message that needs no pin because its target
// cannot lose its storage before the delivery — and the evaluation it
// triggers — has finished. Two kinds of message qualify, and drain
// drops no pin for either:
//
//   - A message to the task the caller is registering or unregistering,
//     or to the running parent registering it. That task cannot
//     complete before the call returns — registration precedes its
//     execution, a parent's body outlives its children's registration,
//     and the shell guard outlives Unregister (the runtime drops it in
//     completeOne) — and the caller's own drain delivers the message
//     before returning.
//   - A message its target must receive to release: satisfiability to
//     a chain successor or to the head of a child chain, and
//     children-done to a parent access. Until the flag lands, the
//     target's own access pin holds its node; after it, deliver touches
//     the target only while its own delivery keeps the target alive
//     (see deliver).
func (mb *mailbox) pushHeld(a *Access, f asm.Flags) {
	mb.Push(a, f|msgHeld)
}

// pushSat enqueues satisfiability owed to a chain successor or to the
// head of a child chain, held (pushHeld) unless the target is weak. A
// weak access does not gate its task, which may already have finished:
// once its read satisfiability lands, another thread's write
// satisfiability can release it while this delivery is still forwarding
// to its read successor, so a weak target keeps the message pin.
func (mb *mailbox) pushSat(a *Access, f asm.Flags) {
	if a.weak() {
		mb.push(a, f)
		return
	}
	mb.pushHeld(a, f)
}

// mbSlot pads each worker's mailbox onto its own cache line.
type mbSlot struct {
	mb mailbox
	_  [40]byte
}

// WaitFree is the paper's wait-free dependency system (§2.2). All chain
// state lives in set-once atomic flag words; the only mutation is the
// delivery of a message via fetch-or, and every follow-up action is
// triggered by an exactly-once flag-conjunction transition. Reduction and
// commutative runs use a tiny per-run mutex off the critical path (see
// group).
//
// The struct is read-only after construction — but for the donor flag
// (System.RecordPreds), written once — and read by every thread on
// every register and unregister, so it is padded to one cache line
// (a 64-byte heap object is line-aligned): at 48 bytes it shared lines
// with whatever the allocator placed beside it — the scheduler's FIFO
// structs, whose lock owner writes them per task; see sched.FIFO.
type WaitFree struct {
	ready     ReadyFn
	quiescent ReadyFn
	workers   int
	mbs       []mbSlot
	donorFlag
	_ [12]byte
}

// NewWaitFree returns a wait-free dependency system for the given worker
// count. Worker indices passed to the System methods must be in
// [0, workers] and each index must have at most one concurrent user:
// the runtime passes its real worker count plus its root-shard count
// minus one, so the indices above the real workers are submitter slots
// whose exclusivity the RootDomain leases enforce.
func NewWaitFree(ready ReadyFn, workers int) *WaitFree {
	return &WaitFree{ready: ready, workers: workers, mbs: make([]mbSlot, workers+1)}
}

// OnQuiescent registers the callback fired when a node's pin count
// reaches zero from this system's side — all accesses released, no
// chain-tail references, no undelivered messages — after the owning
// task had already fully completed. The runtime uses it to recycle the
// task shell (with its inline access array) back to the allocator.
// When unset, quiescent nodes are simply left to the garbage collector.
func (s *WaitFree) OnQuiescent(fn ReadyFn) { s.quiescent = fn }

// unpin drops one storage reference; the holder must not touch the
// node's accesses after this call. The drop to zero fires the
// quiescence callback with the calling worker (for allocator routing).
func (s *WaitFree) unpin(n *Node, worker int) {
	if n.Unpin() == 0 && s.quiescent != nil {
		s.quiescent(n, worker)
	}
}

// Name implements System.
func (s *WaitFree) Name() string { return "wait-free" }

// Register implements System. It links each access of n into the chains
// of parent's domain. The domain map is single-writer (only the thread
// executing the parent creates its children), so registration itself
// needs no lock; all cross-thread interaction happens through messages.
//
// Pin accounting: every non-alias access pins its node once. A run
// member's pin drops when the member releases (deliver). A plain
// access's link pin also covers its time as the domain-map tail of its
// chain: it drops once the access has released and is a tail no more
// — a later sibling replaced it and delivered flagHasSuccessor
// (linkAfterAccess), or Unregister closed the parent's domain for good
// (closeTail) — or, in a root shard, which no Unregister closes, when
// the registrar's sweep deletes the released tail.
func (s *WaitFree) Register(parent, n *Node, worker int) {
	s.register(parent, nil, n, worker)
}

// RegisterRoot implements System. It is Register with the domain map
// selected per access: every address chain lives in the shard the
// address hashes to, and the caller's lease of those shards is what
// makes each shard's map single-writer. Root chains have no parent
// access (shard nodes declare no accesses), so fresh chains are born
// satisfied exactly as chains of the former single global domain were.
func (s *WaitFree) RegisterRoot(d *RootDomain, n *Node, worker int) {
	s.register(nil, d, n, worker)
}

// register is the shared registration loop: each access links into
// parent's domain (nested tasks) or, when d is non-nil, into the shard
// of its own address (root tasks).
//
// The pending count and the pins are counted once, before the first
// link: a link publishes its access, and from then on another thread's
// release can satisfy it — a commutative member joining an open run
// receives the run's broadcast as soon as it is a member — so a count
// raised after the link could reach zero while the task is still
// registering, and ready it twice.
//
// A node with no accesses links nothing, so nothing can satisfy or
// pin it: it is ready at once, with no pending guard, drain or sweep.
func (s *WaitFree) register(parent *Node, d *RootDomain, n *Node, worker int) {
	if len(n.Accesses) == 0 {
		s.ready(n, worker)
		return
	}
	mb := &s.mbs[worker].mb
	pending, pins := int32(1), int32(0) // 1: the registration guard
	for i := range n.Accesses {
		a := &n.Accesses[i]
		if hasEarlierAccess(n, i) {
			// Duplicate declaration within one task: linking it into the
			// chain would deadlock the task on itself, so alias it.
			a.marks |= markAlias
			continue
		}
		if a.blocking() {
			pending++
		}
		pins++ // the access pin (see Register)
	}
	n.pending.Store(pending)
	if pins > 0 {
		n.pins.Add(pins)
	}
	for i := range n.Accesses {
		a := &n.Accesses[i]
		if a.alias() {
			continue
		}
		owner := parent
		if d != nil {
			owner = &d.shard(a.addr).node
		}
		s.linkInto(owner, a, mb, worker)
	}
	s.drain(mb, worker)
	if d != nil {
		// n's own tails cannot have released yet: n runs only once the
		// registration guard below drops.
		for i := range n.Accesses {
			if sh := d.shard(n.Accesses[i].addr); sh.sweepDue(len(sh.node.domain)) {
				s.sweep(sh, worker)
			}
		}
	}
	n.satisfied(s.ready, worker) // release the registration guard
}

// sweep deletes from root shard sh's map every plain tail whose access
// has released, dropping its link pin — on the last pin, the
// quiescence callback recycles the shell onto the sweeper's slot. The
// caller must hold sh's lease, which makes it the map's single writer
// and the only thread that could still link a successor after the
// tail; once released, an access is owed no other message, so the link
// pin protects nothing more, and a deleted tail gets neither
// flagHasSuccessor nor flagTailClosed, so nothing else drops the pin.
// Group tails stay: a run is released only as a whole, and a later
// compatible member may still join it. The workers' release path is
// untouched — it never reads the map.
func (s *WaitFree) sweep(sh *rootShard, worker int) {
	m := sh.node.domain
	for addr, t := range m {
		if t.access != nil && t.access.state.Load().Has(flagsReleased) {
			delete(m, addr)
			s.unpin(t.access.node, worker)
		}
	}
	sh.sweepAt = 2 * len(m)
}

// linkInto links one non-alias access into owner's domain map. The
// caller must be the single writer of owner's domain.
func (s *WaitFree) linkInto(owner *Node, a *Access, mb *mailbox, worker int) {
	n := a.node
	if owner.domain == nil {
		owner.domain = make(map[unsafe.Pointer]tailEntry, InlineAccessCap)
	}
	tail, ok := owner.domain[a.addr]
	switch {
	case ok && tail.group != nil:
		s.linkAfterGroup(tail, a, mb)
	case ok:
		// Record the chain predecessor for the core's priority-
		// inheritance walk, once the runtime has a donor; the old
		// tail's link pin, held until linkAfterAccess has delivered
		// flagHasSuccessor to it, makes the dereference safe.
		if s.on.Load() {
			n.recordPred(tail.access.node)
		}
		s.linkAfterAccess(tail, a, mb, worker)
	default:
		tail.parent = findOwnAccess(owner, a.addr)
		s.linkFresh(tail.parent, a, mb)
	}
	// a's pins were taken before the first link (register).
	if a.group != nil {
		owner.domain[a.addr] = tailEntry{group: a.group, parent: tail.parent}
	} else {
		owner.domain[a.addr] = tailEntry{access: a, parent: tail.parent}
	}
}

// Unregister implements System: the task finished, so deliver the
// finished flag to every access and release each access's child guard
// (paper Definition 2.4). Open groups created by the task's children are
// closed first so trailing reductions combine.
//
// The task's body has returned, and children are only ever registered
// by the thread executing the parent's body, so after this call n's
// domain map can never be consulted again: the current tails (accesses
// of n's children) are closed here, after the drain, so that their
// link pins drop at their release (closeTail).
//
// An access with no live children gets finished and children-done as
// one delivery: this thread has just taken its child guard below zero,
// so both flags are this thread's to set. With children still live, the
// last of them to release delivers children-done later, from its own
// thread. A leaf — an empty domain map — skips the guards altogether:
// children link only into their parent's domain map, and nothing
// deletes an entry there before Reset, so no access of a leaf ever had
// a child.
//
// A node with no accesses and an empty domain map has no message to
// send and no tail to unpin (the mailbox is empty between operations),
// so it returns at once.
func (s *WaitFree) Unregister(n *Node, worker int) {
	leaf := len(n.domain) == 0
	if len(n.Accesses) == 0 && leaf {
		return
	}
	mb := &s.mbs[worker].mb
	closeOpenGroups(n, mb)
	for i := range n.Accesses {
		a := &n.Accesses[i]
		if a.alias() {
			continue
		}
		f := flagFinished
		if leaf || a.childGuard.Add(-1) < 0 {
			f |= flagChildrenDone
		}
		mb.pushHeld(a, f)
	}
	s.drain(mb, worker)
	for _, t := range n.domain {
		if t.access != nil {
			s.closeTail(t.access, worker)
		}
	}
}

// CloseDomain implements System: close open reduction/commutative runs in
// n's domain so their combines can happen (taskwait semantics).
func (s *WaitFree) CloseDomain(n *Node, worker int) {
	mb := &s.mbs[worker].mb
	closeOpenGroups(n, mb)
	s.drain(mb, worker)
}

func closeOpenGroups(n *Node, mb *mailbox) {
	for _, t := range n.domain {
		if t.group != nil {
			t.group.close(nil, mb)
		}
	}
}

// hasEarlierAccess reports whether accesses[0:i] already contains the
// address of access i (duplicate declaration within one task).
func hasEarlierAccess(n *Node, i int) bool {
	addr := n.Accesses[i].addr
	for j := 0; j < i; j++ {
		if n.Accesses[j].addr == addr && !n.Accesses[j].alias() {
			return true
		}
	}
	return false
}

// findOwnAccess returns parent's access to addr, if any: the anchor for a
// child chain crossing nesting levels (paper Fig. 1's child relation).
func findOwnAccess(parent *Node, addr unsafe.Pointer) *Access {
	for i := range parent.Accesses {
		a := &parent.Accesses[i]
		if a.addr == addr && !a.alias() {
			return a
		}
	}
	return nil
}

// linkFresh starts a new chain for a. If the parent task itself accesses
// the address, the chain roots under that access (child relation) and
// inherits its satisfiability; otherwise the chain head is born satisfied.
func (s *WaitFree) linkFresh(pa *Access, a *Access, mb *mailbox) {
	s.armAccess(a, pa, mb)
	if pa != nil {
		pa.child.Store(a)
		mb.pushHeld(pa, flagHasChild)
	} else {
		mb.pushHeld(a, flagReadSat|flagWriteSat)
	}
}

// linkAfterAccess appends a after the current chain tail, delivering
// flagHasSuccessor to the replaced tail in place. The old tail's link
// pin needs that flag to drop, so the tail is dereferenceable up to the
// Deliver; after it, another thread's release may drop the pin and
// recycle the shell, so the follow-ups use only what was read before —
// the forwards go to a, which this registration holds — and the tail
// is touched again only where this delivery completed its release.
func (s *WaitFree) linkAfterAccess(tail tailEntry, a *Access, mb *mailbox, worker int) {
	prev := tail.access
	s.armAccess(a, tail.parent, mb)
	compat := prev.typ == Read && a.typ == Read
	prev.succReadCompat = compat
	prev.succ.Store(a)
	pn := prev.node
	before, after := prev.state.Deliver(flagHasSuccessor)
	// The early read forward and the release push of deliver, for the
	// deliveries in which flagHasSuccessor is the last flag to land.
	if compat && asm.Transitioned(before, after, flagReadSat|flagHasSuccessor) {
		mb.pushHeld(a, flagReadSat)
	}
	if asm.Transitioned(before, after, flagsReleased|flagHasSuccessor) {
		f := flagReadSat | flagWriteSat
		if compat {
			f = flagWriteSat
		}
		mb.pushHeld(a, f)
		s.unpin(pn, worker)
	}
}

// closeTail tells a plain chain tail that no successor will replace
// it — its parent's domain is closed — so that its link pin drops at
// its release, or here if it has already released.
func (s *WaitFree) closeTail(a *Access, worker int) {
	n := a.node
	before, after := a.state.Deliver(flagTailClosed)
	if asm.Transitioned(before, after, flagsReleased|flagTailClosed) {
		s.unpin(n, worker)
	}
}

// linkAfterGroup either joins a compatible open run or closes the run and
// chains a after it.
func (s *WaitFree) linkAfterGroup(tail tailEntry, a *Access, mb *mailbox) {
	g := tail.group
	if g.compatible(a) && g.join(a, mb) {
		a.parentAccess = tail.parent
		if tail.parent != nil {
			tail.parent.childGuard.Add(1)
		}
		return
	}
	s.armAccess(a, tail.parent, mb)
	g.close(a, mb)
}

// armAccess performs the per-access bookkeeping common to the link paths
// that start a chain segment: parent guard, and group creation for
// run-typed accesses. The task's pending count was raised for a before
// the first link (register).
func (s *WaitFree) armAccess(a *Access, chainParent *Access, mb *mailbox) {
	a.parentAccess = chainParent
	if chainParent != nil {
		chainParent.childGuard.Add(1)
	}
	if a.typ == Reduction || a.typ == Commutative {
		newGroup(a, s.workers)
	}
}

// drain delivers queued messages until the mailbox is empty, evaluating
// each resulting transition (the while loop of paper Fig. 2). Each
// delivery drops the pin its message carries (none for a held message)
// — after the evaluation, so the access stays dereferenceable
// throughout, even when another worker concurrently completes the
// access's release transition.
func (s *WaitFree) drain(mb *mailbox, worker int) {
	for {
		m, ok := mb.Pop()
		if !ok {
			return
		}
		n := m.To.node
		if m.Bits&msgHeld == 0 {
			s.deliver(m.To, m.Bits, mb, worker)
			s.unpin(n, worker)
			continue
		}
		if checked && n.pins.Load() <= 0 {
			panic(fmt.Sprintf("deps: held message %b to an access whose node holds no pin", m.Bits&^msgHeld))
		}
		if !s.deliver(m.To, m.Bits&^msgHeld, mb, worker) && checked {
			panic(fmt.Sprintf("deps: held message %b delivered twice", m.Bits&^msgHeld))
		}
	}
}

// deliver merges f into a's flags and performs the follow-up actions the
// transition triggers; it reports whether the delivery set a new flag.
// Each condition below is a conjunction of set-once flags, so
// asm.Transitioned guarantees the corresponding action fires exactly
// once per access regardless of which thread's delivery completed it.
//
// A held message (pushHeld) keeps a's storage alive only until its flag
// lands; from then on another thread's delivery may release a and
// recycle its shell. So a's fixed fields are read before the Deliver,
// and after it a is touched only where this delivery itself keeps a
// alive:
//   - it completed a's execution satisfaction: a's task cannot run, let
//     alone finish, before the satisfied call, which therefore comes
//     last;
//   - it forwards to a's child chain, whose head cannot release without
//     the forwarded flag — so a cannot collect children-done — until
//     the forward, still in this mailbox, lands (a run's head reports
//     its release only once satisfied, like any other access);
//   - it released a run member, or released a plain access that is a
//     chain tail no more, and drops a's pin itself, after every use of
//     a. A plain access released while still a tail keeps its link pin
//     for the registrar of its successor or its parent's Unregister,
//     which may drop it at once (linkAfterAccess, closeTail), so its
//     release uses only the fields read before the Deliver.
func (s *WaitFree) deliver(a *Access, f asm.Flags, mb *mailbox, worker int) bool {
	n, g, typ, marks := a.node, a.group, a.typ, a.marks
	var pa *Access
	if g == nil {
		// Fixed at link time for a plain access; a run member's is set
		// after its join has published it, so the group path reads it
		// at the member's release.
		pa = a.parentAccess
	}
	before, after := a.state.Deliver(f)
	if before == after {
		return false // redundant delivery
	}
	// Execution satisfaction of a blocking access (Access.blocking):
	// reads need read satisfiability, the rest need both.
	runnable := false
	if typ == Commutative || typ != Reduction && marks&markWeak == 0 {
		need := flagReadSat | flagWriteSat
		if typ == Read {
			need = flagReadSat
		}
		runnable = asm.Transitioned(before, after, need)
	}

	if g != nil {
		// Run member: satisfiability is managed by the group.
		if marks&markGroupHead != 0 && asm.Transitioned(before, after, flagReadSat|flagWriteSat) {
			g.satArrived(mb)
		}
		// A plain reduction member is owed nothing after its own
		// finished+children-done, so it releases — to its run, its
		// parent access, and its storage pin — then. The run's head is
		// still owed the chain predecessor's satisfiability, and a
		// commutative member the group's broadcast, so they release
		// only at the full conjunction (run members finish eagerly, so
		// finished can long precede the sat flags).
		done := flagFinished | flagChildrenDone
		if marks&markGroupHead != 0 || typ == Commutative {
			done = flagsReleased
		}
		if asm.Transitioned(before, after, done) {
			g.memberReleased(mb)
			if a.parentAccess != nil {
				s.childReleased(a.parentAccess, mb)
			}
			s.unpin(n, worker)
		}
		if runnable {
			n.satisfied(s.ready, worker)
		}
		return true
	}

	// Early read forwarding: consecutive reads run concurrently, so read
	// satisfiability flows to a read successor before this access ends.
	// succReadCompat is a plain field written by the registrar just
	// before it delivers flagHasSuccessor, so it must only be read after
	// the transition check observes that flag (the atomic state word
	// orders the publication); keep the Transitioned operand first.
	if typ == Read && asm.Transitioned(before, after, flagReadSat|flagHasSuccessor) && a.succReadCompat {
		mb.pushSat(a.succ.Load(), flagReadSat)
	}

	// Child forwarding: accesses of child tasks inherit the
	// satisfiability of the parent access they nest under.
	if asm.Transitioned(before, after, flagReadSat|flagHasChild) {
		mb.pushSat(a.child.Load(), flagReadSat)
	}
	if asm.Transitioned(before, after, flagWriteSat|flagHasChild) {
		mb.pushSat(a.child.Load(), flagWriteSat)
	}

	// Release: satisfied + finished + children done. Forward full
	// satisfiability to the successor and notify across nesting levels.
	if asm.Transitioned(before, after, flagsReleased) && pa != nil {
		s.childReleased(pa, mb)
	}
	if asm.Transitioned(before, after, flagsReleased|flagHasSuccessor) {
		// A read-compatible successor is sent only what the early
		// forward above did not carry. Needing both messages, it cannot
		// release — and its storage cannot be recycled — before that
		// forward has reached it, which may still be in flight: the
		// thread that observed the forwarding transition can be
		// preempted between its delivery to a and its push, while other
		// threads run a's task to completion and release a.
		f := flagReadSat | flagWriteSat
		if a.succReadCompat {
			f = flagWriteSat
		}
		mb.pushSat(a.succ.Load(), f)
	}
	if asm.Transitioned(before, after, flagsReleased|flagHasSuccessor) ||
		asm.Transitioned(before, after, flagsReleased|flagTailClosed) {
		// The access released and is no longer a chain tail: drop its
		// link pin, after every use of a above.
		s.unpin(n, worker)
	}
	// A blocking access is satisfied before its task can finish, so its
	// satisfaction never comes with its release: this is the last use
	// of a when it fires.
	if runnable {
		n.satisfied(s.ready, worker)
	}
	return true
}

// childReleased drops one child from pa's child guard; if pa's task has
// finished and this was its last child, that delivers children-done,
// enabling pa's own release.
func (s *WaitFree) childReleased(pa *Access, mb *mailbox) {
	if pa.childGuard.Add(-1) < 0 {
		mb.pushHeld(pa, flagChildrenDone)
	}
}

var _ System = (*WaitFree)(nil)
