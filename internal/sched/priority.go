package sched

// Priority scheduling is exactly the kind of policy the paper's
// centralized design exists to make cheap to add ("adding new
// scheduling policies should be easy", §3.2): because every
// synchronized scheduler wraps one unsynchronized Policy, a QoS
// dimension is a policy wrapper, not a rework of the scheduler's
// synchronization. The Priority policy below slots under Sync, Central
// and Blocking unchanged; the work-stealing baseline — whose per-worker
// deques bypass the Policy abstraction — ignores priorities, see
// worksteal.go.

// PriorityLevels is the number of scheduling priority levels. Level 0
// is the default (batch) class; level PriorityLevels-1 is the most
// urgent. The level count is deliberately small and fixed: levels are
// scanned on every pop, and a QoS split needs classes, not a total
// order.
const PriorityLevels = 4

// courtesyInterval bounds priority starvation: after this many
// consecutive pops were served over a waiting lower level, the next pop
// is granted to a waiting lower level instead of the highest. The
// courtesy rotates across the waiting levels (see Priority.courtesy),
// so *every* level's wait is bounded — a task at the front of its
// level is served within at most (PriorityLevels-1)·(courtesyInterval+1)
// pops no matter which mix of other levels stays saturated. Sustained
// high-priority load slows lower classes down; it cannot park any of
// them forever.
const courtesyInterval = 16

// ClampPriority maps an arbitrary requested priority onto the bounded
// level range.
func ClampPriority(pri int) int {
	if pri < 0 {
		return 0
	}
	if pri >= PriorityLevels {
		return PriorityLevels - 1
	}
	return pri
}

// Priority is the bounded-levels priority policy: one inner policy per
// level, popped highest level first with a rotating anti-starvation
// courtesy slot. It composes with the existing policies rather than
// replacing them — each level is its own FIFO/LIFO/Locality instance,
// so within a level the configured policy's order (and NUMA affinity)
// is preserved.
//
// Like every Policy it is unsynchronized: the wrapping scheduler
// serializes all calls, so the scan counters are plain ints.
type Priority[T any] struct {
	levels [PriorityLevels]Policy[T]
	local  [PriorityLevels]LocalityAware[T] // levels[i], if NUMA-aware

	priOf func(T) int

	// elevated counts tasks queued above level 0; while it is zero
	// every operation short-circuits to level 0, so runs that never set
	// a priority pay one predictable branch.
	elevated int
	// starved counts consecutive pops that were served from a level
	// above some non-empty lower level; reaching courtesyInterval
	// grants a waiting lower level the next slot.
	starved int
	// courtesy is the rotation cursor of the courtesy slot: the scan
	// for a waiting lower level starts here and the cursor advances
	// past the served level, so repeated courtesies cycle through every
	// waiting level instead of always favouring the lowest (which
	// would starve the middle levels — served neither by the
	// highest-first scan nor by a lowest-first courtesy).
	courtesy int
}

// NewPriority builds a priority policy whose levels are created by mk
// and whose per-task level is read by priOf (clamped). mk is invoked
// once per level.
func NewPriority[T any](mk func() Policy[T], priOf func(T) int) *Priority[T] {
	return NewPriorityLevels(func(int) Policy[T] { return mk() }, priOf)
}

// NewPriorityLevels is NewPriority with a per-level constructor: mk
// receives the level index, so different levels can run different
// orderings (the deadline-aware mode mounts an EDF heap as the top
// level while the batch levels keep the configured inner policy).
func NewPriorityLevels[T any](mk func(level int) Policy[T], priOf func(T) int) *Priority[T] {
	p := &Priority[T]{priOf: priOf}
	for i := range p.levels {
		p.levels[i] = mk(i)
		p.local[i], _ = p.levels[i].(LocalityAware[T])
	}
	return p
}

// admit returns the level t queues at — the extractor's, clamped — and
// counts it if elevated.
func (p *Priority[T]) admit(t T) int {
	pri := ClampPriority(p.priOf(t))
	if pri > 0 {
		p.elevated++
	}
	return pri
}

// Push implements Policy.
func (p *Priority[T]) Push(t T) { p.levels[p.admit(t)].Push(t) }

// PushLocal implements LocalityAware by forwarding the NUMA node to the
// task's level; levels whose inner policy has no locality support fall
// back to a plain Push.
func (p *Priority[T]) PushLocal(t T, node int) {
	pri := p.admit(t)
	if l := p.local[pri]; l != nil {
		l.PushLocal(t, node)
		return
	}
	p.levels[pri].Push(t)
}

// Pop implements Policy: highest non-empty level first, except that
// every courtesyInterval-th pop that would starve a waiting lower level
// serves the rotation's next waiting level below the highest instead.
func (p *Priority[T]) Pop(worker int) (T, bool) {
	if p.elevated == 0 {
		// No elevated tasks anywhere: the priority dimension is inert
		// and level 0 behaves exactly like the bare inner policy.
		return p.levels[0].Pop(worker)
	}
	if p.starved >= courtesyInterval {
		hi := PriorityLevels - 1
		for hi >= 0 && p.levels[hi].Len() == 0 {
			hi--
		}
		for off := 0; hi > 0 && off < PriorityLevels; off++ {
			l := (p.courtesy + off) % PriorityLevels
			if l >= hi {
				// The courtesy slot is for levels the normal scan would
				// starve; the top level needs no courtesy.
				continue
			}
			t, ok := p.levels[l].Pop(worker)
			if !ok {
				continue
			}
			p.courtesy = (l + 1) % PriorityLevels
			p.starved = 0
			if l > 0 {
				p.elevated--
			}
			return t, true
		}
		// No waiting lower level after all: fall through to the normal
		// scan (starved stays armed for the next pop).
	}
	for l := PriorityLevels - 1; l >= 0; l-- {
		t, ok := p.levels[l].Pop(worker)
		if !ok {
			continue
		}
		if l > 0 {
			p.elevated--
		}
		if p.lowerWaiting(l) {
			p.starved++
		} else {
			p.starved = 0
		}
		return t, true
	}
	var zero T
	return zero, false
}

// lowerWaiting reports whether any level below l holds a task — the
// condition under which serving level l counts toward starvation.
func (p *Priority[T]) lowerWaiting(l int) bool {
	for i := 0; i < l; i++ {
		if p.levels[i].Len() > 0 {
			return true
		}
	}
	return false
}

// Elevated returns the number of queued tasks above level 0; the
// synchronized scheduler batches service only while it is zero.
func (p *Priority[T]) Elevated() int { return p.elevated }

// Len implements Policy.
func (p *Priority[T]) Len() int {
	n := 0
	for i := range p.levels {
		n += p.levels[i].Len()
	}
	return n
}

var _ LocalityAware[*int] = (*Priority[*int])(nil)
