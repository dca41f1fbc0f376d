package deps

// Private is a set of per-worker privatized reduction slots for
// work-sharing loop tasks: the generic-element counterpart of the
// float64 slot arrays inside reduction runs (group.slots, on either
// dependency system). A loop's chunks accumulate into the slot of whichever
// worker executes them — no atomic traffic per iteration or per chunk —
// and the partials are combined exactly once, by the single thread that
// observes the loop's completion (the commutative/reduction group
// machinery guarantees such a thread exists: the loop is one logical
// task, so its release is one event).
//
// Every slot starts at the identity element, so Combine can fold all
// slots unconditionally: untouched workers contribute the identity.
type Private[T any] struct {
	slots []privSlot[T]
}

// privSlot pads each worker's accumulator so neighbouring workers'
// writes never share a cache line. The pad is generous rather than
// exact because T's size is not known here.
type privSlot[T any] struct {
	v T
	_ [64]byte
}

// NewPrivate returns worker-private slots for workers workers, each
// initialized to identity (which must be the identity element of the
// intended combine: 0 for sums, +Inf for mins, ...).
func NewPrivate[T any](workers int, identity T) *Private[T] {
	if workers < 1 {
		workers = 1
	}
	p := &Private[T]{slots: make([]privSlot[T], workers)}
	for i := range p.slots {
		p.slots[i].v = identity
	}
	return p
}

// Slot returns worker's private accumulator. Each worker index must
// have at most one concurrent user — the same single-writer contract as
// every other per-worker structure in this package.
func (p *Private[T]) Slot(worker int) *T { return &p.slots[worker].v }

// Combine folds every slot into acc with combine and returns the
// result. It must only be called once no chunk can be writing a slot —
// i.e. after the owning loop task has fully completed.
func (p *Private[T]) Combine(acc T, combine func(T, T) T) T {
	for i := range p.slots {
		acc = combine(acc, p.slots[i].v)
	}
	return acc
}
