package deps

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"
)

// group is a maximal run of consecutive reduction or commutative accesses
// to one address within one domain, on either dependency system (the
// locking baseline uses only the storage newRun builds). The wait-free
// chain treats the whole run as a single segment: the run's head
// receives satisfiability from the chain predecessor, and the run
// releases downstream (to `after`) only when every member has released
// and the run is closed.
//
// Group state transitions are the one place the wait-free system uses a
// mutex. Runs are coarse (one per reduction clause per address), so the
// mutex is far off the per-task critical path the paper optimizes; the
// chain propagation itself stays wait-free.
type group struct {
	mu sync.Mutex

	kind   AccessType // Reduction or Commutative
	op     ReductionOp
	addr   unsafe.Pointer
	length int

	// slots holds the per-worker privatized partial results (reductions).
	slots [][]float64

	// pending counts registered members that have not yet released.
	pending int
	// closed: no further member can join (a non-compatible access
	// registered after the run, or the domain closed).
	closed bool
	// satisfied: the chain predecessor released to the run's head.
	satisfied bool
	// released: the run has combined (reductions) and forwarded
	// satisfiability downstream.
	released bool

	// after is the access immediately following the run, installed at
	// close time; it receives full satisfiability when the run releases.
	after *Access

	// members collects commutative accesses so satisfiability can be
	// broadcast when the predecessor releases.
	members []*Access

	// token serializes commutative execution (Access.token reaches it
	// through the member's group pointer).
	token atomic.Int32
}

// newRun builds the storage of a run that a starts, on either system.
func newRun(a *Access, workers int) *group {
	return &group{
		kind:   a.typ,
		op:     a.op,
		addr:   a.addr,
		length: a.length,
		slots:  make([][]float64, workers+1),
	}
}

// newGroup starts a wait-free run at a: the storage plus the head's
// mark, pending count and commutative member entry.
func newGroup(a *Access, workers int) *group {
	g := newRun(a, workers)
	a.group = g
	a.marks |= markGroupHead
	g.pending = 1
	if g.kind == Commutative {
		g.members = append(g.members, a)
	}
	return g
}

// join adds a compatible access to an open run. Caller: registration
// thread. Returns false if the run is closed (the caller then starts a
// new run chained after this one).
func (g *group) join(a *Access, mb *mailbox) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return false
	}
	g.pending++
	a.group = g
	if g.kind == Commutative {
		g.members = append(g.members, a)
		if g.satisfied {
			mb.push(a, flagReadSat|flagWriteSat)
		}
	}
	return true
}

// compatible reports whether access a may join this run.
func (g *group) compatible(a *Access) bool {
	if a.typ != g.kind || a.addr != g.addr {
		return false
	}
	return g.kind != Reduction || a.op == g.op
}

// satArrived records that the chain predecessor released to the run head.
// Commutative members become executable; reductions only unblock their
// eventual combine (members run eagerly).
func (g *group) satArrived(mb *mailbox) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.satisfied = true
	if g.kind == Commutative {
		for _, m := range g.members {
			if m.marks&markGroupHead == 0 {
				mb.push(m, flagReadSat|flagWriteSat)
			}
		}
	}
	g.tryRelease(mb)
}

// memberReleased records that one member finished (including its nested
// accesses) and releases the run when it was the last.
func (g *group) memberReleased(mb *mailbox) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.pending--
	g.tryRelease(mb)
}

// close seals the run. If next is non-nil it becomes the run's successor
// and receives satisfiability when the run releases (immediately, if the
// run has already released).
func (g *group) close(next *Access, mb *mailbox) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
	if next != nil {
		if g.released {
			mb.push(next, flagReadSat|flagWriteSat)
			return
		}
		g.after = next
	}
	g.tryRelease(mb)
}

// tryRelease combines and forwards downstream once the run is complete.
// Caller must hold g.mu.
func (g *group) tryRelease(mb *mailbox) {
	if g.released || !g.closed || !g.satisfied || g.pending != 0 {
		return
	}
	g.released = true
	if g.kind == Reduction {
		g.combine()
	}
	if g.after != nil {
		mb.push(g.after, flagReadSat|flagWriteSat)
	}
}

// slot returns worker's privatized buffer, allocating it on first use
// initialized to the operation's identity element.
func (g *group) slot(worker int) []float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.slots[worker]
	if s == nil {
		s = make([]float64, g.length)
		switch g.op {
		case OpMax:
			for i := range s {
				s[i] = math.Inf(-1)
			}
		case OpMin:
			for i := range s {
				s[i] = math.Inf(1)
			}
		}
		g.slots[worker] = s
	}
	return s
}

// combine folds every privatized buffer into the target memory, once per
// run: by release time no member can be writing slots.
func (g *group) combine() {
	dst := unsafe.Slice((*float64)(g.addr), g.length)
	for _, s := range g.slots {
		if s == nil {
			continue
		}
		switch g.op {
		case OpSum:
			for i := range dst {
				dst[i] += s[i]
			}
		case OpMax:
			for i := range dst {
				dst[i] = math.Max(dst[i], s[i])
			}
		case OpMin:
			for i := range dst {
				dst[i] = math.Min(dst[i], s[i])
			}
		}
	}
}
