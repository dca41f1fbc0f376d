package deps

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Locked is the fine-grained-locking dependency system: the design the
// paper's wait-free implementation replaced, kept as the "w/o wait-free
// dependencies" variant of the evaluation (§6.2). Every access chain
// (one per address per domain) is protected by its own mutex; each
// registration and each release acquires the chain lock and rescans the
// chain to propagate satisfiability. Under fine-grained tasks the chain
// locks of hot addresses serialize the runtime, which is exactly the
// bottleneck Figure 4-6's "w/o wait-free dependencies" series exhibits.
type Locked struct {
	ready   ReadyFn
	workers int
	donorFlag
}

// NewLocked returns the locking dependency system.
func NewLocked(ready ReadyFn, workers int) *Locked {
	return &Locked{ready: ready, workers: workers}
}

// Name implements System.
func (s *Locked) Name() string { return "fine-grained-locking" }

// lchain is one per-(domain,address) dependency chain.
type lchain struct {
	mu      sync.Mutex
	entries []*lentry
	head    int // index of the first non-released entry
	closed  bool
	// parentEntry/parentChain locate the parent-task access this chain
	// nests under, fixed at chain creation.
	parentEntry *lentry
	parentChain *lchain
}

// lentry is one access's position in a chain. It deliberately holds no
// pointer back to the Access: chains are built from heap-allocated
// lentries precisely so that nothing in this system dereferences a
// task's (possibly shell-inlined, recycled) access storage after
// Register returns — which is why the locking baseline needs none of
// the wait-free system's pin accounting. The node pointer is only
// dereferenced through satisfy, which the satisfied flag short-circuits
// for every entry of a task that has started executing.
type lentry struct {
	node      *Node
	typ       AccessType
	finished  bool
	satisfied bool
	// reached is set, once, when the chain's order would satisfy the
	// entry. It differs from satisfied only for weak entries, which are
	// satisfied at registration: the chain nested under the entry
	// (nested, set when the owner's first child on the address registers)
	// satisfies its own front only once the entry is reached, so a weak
	// parent's children still wait for the parent's predecessors.
	reached atomic.Bool
	nested  atomic.Pointer[lchain]
	// pendingChildren counts live child accesses plus one guard held
	// until the owning task finishes. Zero means fully released.
	pendingChildren atomic.Int64
	// parentEntry/parentChain locate the access one nesting level up.
	parentEntry *lentry
	parentChain *lchain
	run         *group
	chain       *lchain
}

func (e *lentry) done() bool { return e.pendingChildren.Load() == 0 }

// ldefer accumulates cross-chain work discovered during a rescan so it
// can be applied after the chain lock is dropped (avoiding lock nesting,
// the deadlock hazard the paper attributes to this design).
type ldefer struct {
	chains []*lchain
}

// Register implements System.
func (s *Locked) Register(parent, n *Node, worker int) {
	s.register(parent, nil, n, worker)
}

// RegisterRoot implements System: Register with the chain map selected
// per access by the address's shard. The caller's lease keeps each
// shard's ldomain single-writer; root chains have no parent entry.
func (s *Locked) RegisterRoot(d *RootDomain, n *Node, worker int) {
	s.register(nil, d, n, worker)
}

// register is the shared registration loop: each access links into
// parent's domain (nested tasks) or, when d is non-nil, into the shard
// of its own address (root tasks).
func (s *Locked) register(parent *Node, d *RootDomain, n *Node, worker int) {
	n.pending.Store(1)
	var post ldefer
	for i := range n.Accesses {
		a := &n.Accesses[i]
		if hasEarlierAccess(n, i) {
			a.marks |= markAlias
			continue
		}
		owner := parent
		if d != nil {
			owner = &d.shard(a.addr).node
		}
		s.linkInto(owner, a, &post, worker)
	}
	s.apply(&post, worker)
	if d != nil {
		for i := range n.Accesses {
			if sh := d.shard(n.Accesses[i].addr); sh.sweepDue(len(sh.node.ldomain)) {
				s.sweep(sh)
			}
		}
	}
	n.satisfied(s.ready, worker)
}

// sweep deletes from root shard sh's map every chain whose
// entries have all released — the locking baseline's half of the
// registrar's sweep (see rootShard). The caller must hold sh's lease:
// only the lease holder appends to a root chain, so an empty chain
// stays empty. A worker still holding a deleted chain for a deferred
// rescan only rescans an empty chain.
func (s *Locked) sweep(sh *rootShard) {
	m := sh.node.ldomain
	for addr, ch := range m {
		ch.mu.Lock()
		empty := ch.head == len(ch.entries)
		ch.mu.Unlock()
		if empty {
			delete(m, addr)
		}
	}
	sh.sweepAt = 2 * len(m)
}

// linkInto appends one non-alias access to its chain in owner's domain
// map. The caller must be the single writer of owner's ldomain.
func (s *Locked) linkInto(owner *Node, a *Access, post *ldefer, worker int) {
	n := a.node
	if owner.ldomain == nil {
		owner.ldomain = make(map[unsafe.Pointer]*lchain, InlineAccessCap)
	}
	ch, ok := owner.ldomain[a.addr]
	if !ok {
		ch = &lchain{}
		owner.ldomain[a.addr] = ch
		if pa := findOwnAccess(owner, a.addr); pa != nil && pa.lentry != nil {
			ch.parentEntry = pa.lentry
			ch.parentChain = pa.lentry.chain
			// Published before this chain's first rescan reads reached:
			// either that read sees the entry reached, or the parent
			// chain's satisfy sees this chain and rescans it.
			pa.lentry.nested.Store(ch)
		}
	}
	parentEntry, parentChain := ch.parentEntry, ch.parentChain

	ch.mu.Lock()
	e := &lentry{node: n, typ: a.typ, chain: ch,
		parentEntry: parentEntry, parentChain: parentChain}
	e.pendingChildren.Store(1)
	a.lentry = e
	if parentEntry != nil {
		parentEntry.pendingChildren.Add(1)
	}
	if a.typ == Reduction || a.typ == Commutative {
		e.run = s.runFor(ch, a)
		a.group = e.run // read after Register only by the task's own thread
	}
	if a.blocking() {
		n.pending.Add(1)
	} else {
		// A reduction runs eagerly into its slot, so it is reached at
		// once; a weak access never gates its task.
		e.satisfied = true
		e.reached.Store(a.typ == Reduction)
	}
	if last := len(ch.entries) - 1; last >= ch.head && e.run == nil && s.on.Load() {
		// Record the chain predecessor for the core's priority-
		// inheritance walk once the runtime has a donor (group entries
		// are excluded, mirroring the wait-free system's plain-tail-only
		// recording).
		if p := ch.entries[last]; p.run == nil {
			n.recordPred(p.node)
		}
	}
	ch.entries = append(ch.entries, e)
	s.rescan(ch, post, worker)
	ch.mu.Unlock()
}

// runFor joins the chain's trailing unreleased run if compatible, else
// starts a new one. Caller holds ch.mu.
func (s *Locked) runFor(ch *lchain, a *Access) *group {
	if len(ch.entries) > ch.head {
		if g := ch.entries[len(ch.entries)-1].run; g != nil && g.compatible(a) {
			return g
		}
	}
	return newRun(a, s.workers)
}

// Unregister implements System.
func (s *Locked) Unregister(n *Node, worker int) {
	var post ldefer
	s.closeChains(n, &post, worker)
	for i := range n.Accesses {
		a := &n.Accesses[i]
		e := a.lentry
		if e == nil || a.alias() {
			continue
		}
		ch := e.chain
		ch.mu.Lock()
		e.finished = true
		e.pendingChildren.Add(-1) // release the owner guard
		s.rescan(ch, &post, worker)
		ch.mu.Unlock()
	}
	s.apply(&post, worker)
}

// CloseDomain implements System.
func (s *Locked) CloseDomain(n *Node, worker int) {
	var post ldefer
	s.closeChains(n, &post, worker)
	s.apply(&post, worker)
}

func (s *Locked) closeChains(n *Node, post *ldefer, worker int) {
	for _, ch := range n.ldomain {
		ch.mu.Lock()
		ch.closed = true
		s.rescan(ch, post, worker)
		ch.mu.Unlock()
	}
}

// apply performs the cross-chain notifications collected by rescans,
// cascading until quiescent. Chain locks are taken one at a time.
func (s *Locked) apply(post *ldefer, worker int) {
	for len(post.chains) > 0 {
		ch := post.chains[len(post.chains)-1]
		post.chains = post.chains[:len(post.chains)-1]
		ch.mu.Lock()
		s.rescan(ch, post, worker)
		ch.mu.Unlock()
	}
}

// rescan pops fully released entries off the front of the chain and
// satisfies the new front run. Caller holds ch.mu. Cross-chain effects
// (parent notifications) are deferred into post.
func (s *Locked) rescan(ch *lchain, post *ldefer, worker int) {
	for ch.head < len(ch.entries) {
		e := ch.entries[ch.head]
		if e.run != nil {
			// Group run: released only as a whole, when every member is
			// done and the run can no longer grow — and, nested under a
			// parent access, only once that access is reached: eager
			// reduction members can all be done before it, and the
			// combine must not overtake the parent's predecessors.
			if pe := ch.parentEntry; pe != nil && !pe.reached.Load() {
				break
			}
			k := ch.head
			all := true
			for k < len(ch.entries) && ch.entries[k].run == e.run {
				if !ch.entries[k].done() {
					all = false
				}
				k++
			}
			runClosed := k < len(ch.entries) || ch.closed
			if !all || !runClosed {
				break
			}
			if e.typ == Reduction {
				e.run.combine()
			}
			for i := ch.head; i < k; i++ {
				s.release(ch.entries[i], post)
				ch.entries[i] = nil
			}
			ch.head = k
			continue
		}
		if !e.done() {
			break
		}
		s.release(e, post)
		ch.entries[ch.head] = nil
		ch.head++
	}

	// Compact long-lived chains so released prefixes do not accumulate.
	if ch.head > 64 && ch.head*2 > len(ch.entries) {
		n := copy(ch.entries, ch.entries[ch.head:])
		clear(ch.entries[n:])
		ch.entries = ch.entries[:n]
		ch.head = 0
	}

	if ch.head >= len(ch.entries) {
		return
	}
	if pe := ch.parentEntry; pe != nil && !pe.reached.Load() {
		return // the parent's own predecessors still hold the address
	}
	front := ch.entries[ch.head]
	switch front.typ {
	case Read:
		for i := ch.head; i < len(ch.entries) && ch.entries[i].typ == Read; i++ {
			s.satisfy(ch.entries[i], post, worker)
		}
	case Write, ReadWrite:
		s.satisfy(front, post, worker)
	case Reduction:
		// Members were satisfied eagerly at registration.
	case Commutative:
		for i := ch.head; i < len(ch.entries) && ch.entries[i].run == front.run; i++ {
			s.satisfy(ch.entries[i], post, worker)
		}
	}
}

// satisfy marks e reached, posts a rescan of the chain nested under it
// and, unless it was satisfied at registration, satisfies it. Caller
// holds e's chain lock.
func (s *Locked) satisfy(e *lentry, post *ldefer, worker int) {
	if e.reached.Load() {
		return
	}
	e.reached.Store(true)
	if nc := e.nested.Load(); nc != nil {
		post.chains = append(post.chains, nc)
	}
	if !e.satisfied {
		e.satisfied = true
		e.node.satisfied(s.ready, worker)
	}
}

// release notifies the nesting level above that one child access is gone.
func (s *Locked) release(e *lentry, post *ldefer) {
	if e.parentEntry == nil {
		return
	}
	if e.parentEntry.pendingChildren.Add(-1) == 0 && e.parentChain != nil {
		post.chains = append(post.chains, e.parentChain)
	}
}

var _ System = (*Locked)(nil)
