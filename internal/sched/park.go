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

// domainPark is one runtime domain's shard of the parking state: its
// own parked count (the producer fast path for home wakes), the
// woken-but-not-yet-polling hint that throttles redundant wake scans
// under bursts, the cumulative park/wake diagnostics, and the
// contiguous worker-index range the domain owns. Padded so
// neighbouring domains' park/wake traffic never false-shares.
type domainPark struct {
	nparked atomic.Int64
	// woken counts wake tokens delivered to this domain's workers that
	// have not yet been consumed-and-acted-on: the waker raises it when
	// it commits a token, the woken worker lowers it as it leaves Park,
	// strictly before its next scheduler poll. While woken covers the
	// domain's pending count, a producer's WakeOne is a no-op — the
	// workers already on their way are guaranteed to observe that
	// pending work (see WakeOne for the ordering argument), so further
	// scans are redundant.
	woken atomic.Int64
	parks atomic.Uint64
	wakes atomic.Uint64
	lo    int
	hi    int
	_     [8]byte
}

// Parker is the elastic pool's park/wake mechanism: per-worker parking
// channels behind padded state words, with parked counts (one global,
// one per runtime domain) so the producer-side fast path (nobody
// parked, nobody to wake) is a single atomic load. It follows the
// check-then-park pattern of gvisor's sleep/seqcount machinery:
//
//   - A worker publishes itself as parked (state word + parked counts),
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
//
// The domain dimension shards this protocol: each domain's producers
// wake that domain's parked workers first (its own nparked fast path),
// falling back to any other domain's parked worker only when the home
// domain has none awake to offer. The runtime builds one domain.
type Parker struct {
	// nparked is the global producer fast path: wakers (and WakeAll)
	// bail on a single load when no worker is parked anywhere. Padded
	// on both sides — it is written on every park/wake edge and read on
	// every enqueue.
	_       [64]byte
	nparked atomic.Int64
	_       [56]byte

	doms  []domainPark
	dom   []int32 // worker id -> domain
	slots []parkSlot
}

// NewParker returns a parker for n workers partitioned into domains by
// domOf (nil, or domains <= 1, collapses to a single domain). Workers
// of one domain must occupy a contiguous index range, so a domain's
// wake scan touches only its own slots.
func NewParker(n, domains int, domOf func(id int) int) *Parker {
	if n < 1 {
		n = 1
	}
	if domains < 1 {
		domains = 1
	}
	p := &Parker{
		slots: make([]parkSlot, n),
		doms:  make([]domainPark, domains),
		dom:   make([]int32, n),
	}
	for i := range p.slots {
		p.slots[i].wake = make(chan struct{}, 1)
	}
	for d := range p.doms {
		p.doms[d].lo = n // empty until a worker claims the range
	}
	for i := 0; i < n; i++ {
		d := 0
		if domOf != nil && domains > 1 {
			d = domOf(i)
		}
		p.dom[i] = int32(d)
		if i < p.doms[d].lo {
			p.doms[d].lo = i
		}
		if i+1 > p.doms[d].hi {
			p.doms[d].hi = i + 1
		}
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
// Every consumed wake token lowers the domain's woken hint on the way
// out, strictly before the caller's next scheduler poll: that ordering
// is what lets WakeOne trust the hint (see there).
func (p *Parker) Park(id int, recheck func() bool) {
	s := &p.slots[id]
	d := &p.doms[p.dom[id]]
	s.state.Store(WorkerParked)
	p.nparked.Add(1)
	d.nparked.Add(1)
	if recheck() {
		// Work raced in (or was already there): cancel the park. Losing
		// the CAS means a waker claimed this worker concurrently and its
		// token is (or is about to be) in the channel; consume it so the
		// next park cannot wake spuriously.
		if s.state.CompareAndSwap(WorkerParked, WorkerRunning) {
			p.nparked.Add(-1)
			d.nparked.Add(-1)
			return
		}
		<-s.wake
		d.woken.Add(-1)
		return
	}
	d.parks.Add(1)
	<-s.wake
	d.woken.Add(-1)
}

// WakeOne wakes at most one parked worker on behalf of domain d's work.
// Callers must publish the work (queue insertion, counter increment)
// before calling, so a worker concurrently executing its pre-sleep
// recheck cannot miss both the work and the wake. When no worker is
// parked anywhere this is a single atomic load.
//
// pending is the caller's current count of queued-but-unclaimed work in
// domain d; when the domain's woken hint already covers it, the call is
// a no-op — the wake-throttle that keeps burst producers from issuing
// one redundant claim scan per enqueue. The throttle cannot strand
// work: the caller raised pending before reading the hint, and a woken
// worker lowers the hint only on its way back to polling, so at the
// moment the producer observes woken >= pending every counted worker
// still has a full poll (and, failing that, a pre-park recheck of the
// pending count) ahead of it. pending < 0 disables the throttle, for a
// caller with no count to offer; the runtime always passes its count
// (the benchmark's park/wake driver is the one caller that does not).
//
// Domain d's own parked workers are claimed first; when d has none,
// any other domain's parked worker is claimed instead.
func (p *Parker) WakeOne(d int, pending int64) {
	if p.nparked.Load() == 0 {
		return
	}
	dp := &p.doms[d]
	if pending >= 0 && dp.woken.Load() >= pending {
		return
	}
	if dp.nparked.Load() > 0 && p.wakeIn(dp) {
		return
	}
	if len(p.doms) == 1 {
		return
	}
	for e := range p.doms {
		ep := &p.doms[e]
		if ep != dp && ep.nparked.Load() > 0 && p.wakeIn(ep) {
			return
		}
	}
}

// wakeIn claims and wakes one parked worker of ep's range, reporting
// whether a token was committed.
func (p *Parker) wakeIn(ep *domainPark) bool {
	for i := ep.lo; i < ep.hi; i++ {
		s := &p.slots[i]
		if s.state.Load() == WorkerParked && s.state.CompareAndSwap(WorkerParked, WorkerRunning) {
			p.nparked.Add(-1)
			ep.nparked.Add(-1)
			ep.woken.Add(1)
			ep.wakes.Add(1)
			s.wake <- struct{}{}
			return true
		}
	}
	return false
}

// WakeAll wakes every currently parked worker (shutdown, exit cascade).
func (p *Parker) WakeAll() {
	if p.nparked.Load() == 0 {
		return
	}
	for i := range p.slots {
		s := &p.slots[i]
		if s.state.Load() == WorkerParked && s.state.CompareAndSwap(WorkerParked, WorkerRunning) {
			ep := &p.doms[p.dom[i]]
			p.nparked.Add(-1)
			ep.nparked.Add(-1)
			ep.woken.Add(1)
			ep.wakes.Add(1)
			s.wake <- struct{}{}
		}
	}
}

// Parked returns the number of currently parked workers.
func (p *Parker) Parked() int { return int(p.nparked.Load()) }

// ParkedIn returns the number of currently parked workers of domain d.
func (p *Parker) ParkedIn(d int) int { return int(p.doms[d].nparked.Load()) }

// Woken returns domain d's woken-but-not-yet-polling hint (racy
// diagnostics, like Parked).
func (p *Parker) Woken(d int) int { return int(p.doms[d].woken.Load()) }

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
func (p *Parker) Parks() uint64 {
	var n uint64
	for d := range p.doms {
		n += p.doms[d].parks.Load()
	}
	return n
}

// Wakes returns the cumulative number of wake tokens delivered.
func (p *Parker) Wakes() uint64 {
	var n uint64
	for d := range p.doms {
		n += p.doms[d].wakes.Load()
	}
	return n
}

// WakesIn returns domain d's cumulative delivered wake tokens.
func (p *Parker) WakesIn(d int) uint64 { return p.doms[d].wakes.Load() }
