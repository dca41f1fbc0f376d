package sched

import "sync/atomic"

// Worker idle states, as published in each worker's parking state word.
// Only the owning worker moves itself between Running and Spinning, and
// only the owner enters Parked; leaving Parked is a CAS race between
// the owner (cancelling its own park after the pre-sleep recheck) and a
// waker claiming it, so a wake token is produced exactly once per park.
const (
	// WorkerRunning: executing tasks (or between Get attempts that are
	// finding work).
	WorkerRunning int32 = iota
	// WorkerSpinning: in the bounded idle spin phase of the park ladder,
	// still polling the scheduler.
	WorkerSpinning
	// WorkerParked: registered for sleep; the worker either cancels
	// (recheck found work) or blocks on its wake channel until a
	// producer claims it.
	WorkerParked
)

// parkSlot is one worker's parking state: the state word and the cap-1
// wake channel the worker sleeps on, padded so neighbouring workers'
// park/wake traffic never false-shares.
type parkSlot struct {
	state atomic.Int32
	wake  chan struct{}
	_     [48]byte
}

// Parker is the elastic pool's park/wake mechanism: per-worker parking
// channels behind padded state words, with a parked count so the
// producer-side fast path (nobody parked, nobody to wake) is a single
// atomic load. It follows the check-then-park pattern of gvisor's
// sleep/seqcount machinery:
//
//   - A worker publishes itself as parked (state word + parked count),
//     then re-checks for work; only if the recheck still sees nothing
//     does it block on its channel.
//   - A producer makes work visible first, then reads the parked count
//     and claims at most one parked worker (CAS on its state word), and
//     the claim winner alone sends the wake token.
//
// Both publications are sequentially consistent atomics, so the classic
// lost-wakeup interleaving cannot happen: either the worker's recheck
// observes the produced work, or the producer's parked-count read
// observes the parked worker — never neither. A worker whose recheck
// finds work cancels its own park with the same CAS; losing that race
// means a producer already committed a token, which the worker then
// consumes so the channel is empty for the next cycle.
type Parker struct {
	// slots is written only by NewParker and read on every state change
	// (MarkSpinning, MarkRunning, Park, the wake scans), so its header
	// has the first line to itself, away from the counters below.
	slots []parkSlot
	_     [40]byte

	// nparked is the producer fast path: wakers (and WakeAll) bail on a
	// single load when no worker is parked. It owns its line — it is
	// written on every park/wake edge and read on every enqueue.
	nparked atomic.Int64
	_       [56]byte

	// woken counts delivered wake tokens that have not yet been
	// consumed-and-acted-on: the waker raises it when it commits a
	// token, the woken worker lowers it as it leaves Park, strictly
	// before its next scheduler poll. While woken covers the caller's
	// pending count, a producer's WakeOne is a no-op — the workers
	// already on their way are guaranteed to observe that pending work
	// (see WakeOne for the ordering argument), so further scans are
	// redundant. parks and wakes are the cumulative diagnostics. The
	// three share the line after nparked's, written on the same edges.
	// Three whole lines make a line-aligned size class, so no heap
	// neighbour shares any of them.
	woken atomic.Int64
	parks atomic.Uint64
	wakes atomic.Uint64
	_     [40]byte
}

// NewParker returns a parker for n workers. The domain arguments are
// ignored — they partitioned the workers into runtime domains the
// runtime no longer has — and the signature is kept for existing
// callers.
func NewParker(n, _ int, _ func(id int) int) *Parker {
	if n < 1 {
		n = 1
	}
	p := &Parker{slots: make([]parkSlot, n)}
	for i := range p.slots {
		p.slots[i].wake = make(chan struct{}, 1)
	}
	return p
}

// MarkSpinning publishes worker id as idle-spinning (diagnostics only;
// not part of the wake protocol). Must only be called by the owning
// worker, and never while parked.
func (p *Parker) MarkSpinning(id int) { p.slots[id].state.Store(WorkerSpinning) }

// MarkRunning publishes worker id as running again. Must only be called
// by the owning worker, and never while parked.
func (p *Parker) MarkRunning(id int) { p.slots[id].state.Store(WorkerRunning) }

// Park blocks worker id until a producer wakes it. Before sleeping it
// calls recheck exactly once, after the worker is already visible as
// parked; if recheck reports work, the park is cancelled and Park
// returns immediately (consuming a racing producer's wake token if one
// was committed). recheck must be cheap and must observe everything a
// producer publishes before calling WakeOne — that ordering is the
// whole lost-wakeup argument. On return the worker's state is Running.
//
// Every consumed wake token lowers the woken hint on the way out,
// strictly before the caller's next scheduler poll: that ordering is
// what lets WakeOne trust the hint (see there).
func (p *Parker) Park(id int, recheck func() bool) {
	s := &p.slots[id]
	s.state.Store(WorkerParked)
	p.nparked.Add(1)
	if recheck() {
		// Work raced in (or was already there): cancel the park. Losing
		// the CAS means a waker claimed this worker concurrently and its
		// token is (or is about to be) in the channel; consume it so the
		// next park cannot wake spuriously.
		if s.state.CompareAndSwap(WorkerParked, WorkerRunning) {
			p.nparked.Add(-1)
			return
		}
		<-s.wake
		p.woken.Add(-1)
		return
	}
	p.parks.Add(1)
	<-s.wake
	p.woken.Add(-1)
}

// WakeOne wakes at most one parked worker. Callers must publish the
// work (queue insertion, counter increment) before calling, so a worker
// concurrently executing its pre-sleep recheck cannot miss both the
// work and the wake. When no worker is parked this is a single atomic
// load. The first argument is ignored — it named the runtime domain
// whose workers to prefer, and the signature is kept for existing
// callers.
//
// pending is the caller's current count of queued-but-unclaimed work;
// when the woken hint already covers it, the call is a no-op — the
// wake-throttle that keeps burst producers from issuing one redundant
// claim scan per enqueue. The throttle cannot strand work: the caller
// raised pending before reading the hint, and a woken worker lowers the
// hint only on its way back to polling, so at the moment the producer
// observes woken >= pending every counted worker still has a full poll
// (and, failing that, a pre-park recheck of the pending count) ahead of
// it. pending < 0 disables the throttle, for a caller with no count to
// offer; the runtime always passes its count (the benchmark's park/wake
// driver is the one caller that does not).
func (p *Parker) WakeOne(_ int, pending int64) {
	if p.nparked.Load() == 0 {
		return
	}
	if pending >= 0 && p.woken.Load() >= pending {
		return
	}
	for i := range p.slots {
		if p.wakeSlot(i) {
			return
		}
	}
}

// WakeAll wakes every currently parked worker (shutdown, exit cascade).
func (p *Parker) WakeAll() {
	if p.nparked.Load() == 0 {
		return
	}
	for i := range p.slots {
		p.wakeSlot(i)
	}
}

// wakeSlot claims worker i if it is parked and sends it a wake token,
// reporting whether a token was committed.
func (p *Parker) wakeSlot(i int) bool {
	s := &p.slots[i]
	if s.state.Load() != WorkerParked || !s.state.CompareAndSwap(WorkerParked, WorkerRunning) {
		return false
	}
	p.nparked.Add(-1)
	p.woken.Add(1)
	p.wakes.Add(1)
	s.wake <- struct{}{}
	return true
}

// Parked returns the number of currently parked workers.
func (p *Parker) Parked() int { return int(p.nparked.Load()) }

// Woken returns the woken-but-not-yet-polling hint (racy diagnostics,
// like Parked).
func (p *Parker) Woken() int { return int(p.woken.Load()) }

// Spinning returns the number of workers currently in the idle spin
// phase (diagnostics; a racy snapshot like Parked).
func (p *Parker) Spinning() int {
	n := 0
	for i := range p.slots {
		if p.slots[i].state.Load() == WorkerSpinning {
			n++
		}
	}
	return n
}

// Parks returns the cumulative number of blocking parks.
func (p *Parker) Parks() uint64 { return p.parks.Load() }

// Wakes returns the cumulative number of wake tokens delivered.
func (p *Parker) Wakes() uint64 { return p.wakes.Load() }
