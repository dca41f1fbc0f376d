// Package trace is the lightweight instrumentation backend of paper §5:
// per-core buffers written without locks by the owning worker, a compact
// binary format inspired by the Common Trace Format, and analysis views
// that reproduce the paper's Figure 10 (scheduler lock comparison) and
// Figure 11 (OS noise) timelines.
//
// Differences from the paper's backend, by necessity of the substrate:
// kernel events are not read from perf_event_open but injected by the
// runtime's OS-noise simulator (see core.Config.Noise), and sub-buffers
// are retained in memory until Flush instead of being streamed to tmpfs
// (the analysis is in-process, so the I/O path adds nothing).
package trace

import (
	"fmt"
	"time"
)

// Kind identifies the event type.
type Kind uint8

// Event kinds. Start/End pairs bracket intervals; the analyzer derives
// per-worker time breakdowns from them.
const (
	KTaskCreate Kind = iota + 1
	KTaskStart
	KTaskEnd
	KSchedEnter // worker entered the scheduler (runtime time)
	KSchedLeave
	KServe // DTLock owner served a task to worker Arg
	KDrain // DTLock owner moved Arg tasks from SPSC buffers
	KIdleStart
	KIdleEnd
	KDepRegister
	KDepUnregister
	KTaskwaitStart
	KTaskwaitEnd
	KInterrupt  // simulated kernel interrupt of Arg nanoseconds
	KTaskCancel // task drained without executing (scope cancelled)
	KEventHold  // body returned with external events pending; release deferred
	KEventFire  // final event decrement ran the deferred release
	// KNodeContinue: the running task went on with compiled-graph node
	// Arg as a call instead of spawning it (no create/start/end follow).
	KNodeContinue
	KSpawnHelp // a Spawn past the spawn window first ran Arg ready tasks
	// KCellSteal: a thread took an offer from the hand-off cells of
	// inline-serving slot Arg, not its own, to make it a task.
	KCellSteal
	// KNodeOffer: the running task took back compiled-graph node Arg,
	// offered to its serving slot's hand-off cells, and ran it as a
	// call (no create/start/end follow).
	KNodeOffer
	kindMax
)

var kindNames = [...]string{
	KTaskCreate: "task-create", KTaskStart: "task-start", KTaskEnd: "task-end",
	KSchedEnter: "sched-enter", KSchedLeave: "sched-leave", KServe: "serve",
	KDrain: "drain", KIdleStart: "idle-start", KIdleEnd: "idle-end",
	KDepRegister: "dep-register", KDepUnregister: "dep-unregister",
	KTaskwaitStart: "taskwait-start", KTaskwaitEnd: "taskwait-end",
	KInterrupt: "interrupt", KTaskCancel: "task-cancel",
	KEventHold: "event-hold", KEventFire: "event-fire",
	KNodeContinue: "node-continue", KSpawnHelp: "spawn-help",
	KCellSteal: "cell-steal", KNodeOffer: "node-offer",
}

// String returns the event kind's name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one trace record: a nanosecond timestamp relative to tracer
// start, the emitting worker, the kind, and one argument.
type Event struct {
	TS     int64
	Arg    uint64
	Worker int32
	Kind   Kind
}

// coreBuf is one worker's event buffer. Only the owning worker appends,
// so no synchronization is needed; padding keeps neighbours off the line.
type coreBuf struct {
	events []Event
	drops  int
	_      [40]byte
}

// Tracer collects events into per-core buffers. A nil *Tracer is valid
// and disabled: every Emit on it is a no-op, which keeps the untraced
// fast path to a single pointer test (the paper's "minimum overhead"
// requirement).
type Tracer struct {
	start time.Time
	cores []coreBuf
	cap   int
}

// New returns a tracer for workers+1 emitters with the given per-core
// event capacity (0 selects 1<<16). Events past the capacity are counted
// as drops rather than grown, bounding memory like the paper's circular
// sub-buffers.
func New(workers, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	t := &Tracer{start: time.Now(), cores: make([]coreBuf, workers+1), cap: capacity}
	return t
}

// Now returns the current trace timestamp in nanoseconds.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.start).Nanoseconds()
}

// Emit records one event on the worker's private buffer.
func (t *Tracer) Emit(worker int, k Kind, arg uint64) {
	if t == nil {
		return
	}
	c := &t.cores[worker]
	if len(c.events) >= t.cap {
		c.drops++
		return
	}
	c.events = append(c.events, Event{TS: t.Now(), Arg: arg, Worker: int32(worker), Kind: k})
}

// EmitTS records an event with an explicit timestamp (used by the OS
// noise injector to place the start of an interrupt interval).
func (t *Tracer) EmitTS(worker int, k Kind, arg uint64, ts int64) {
	if t == nil {
		return
	}
	c := &t.cores[worker]
	if len(c.events) >= t.cap {
		c.drops++
		return
	}
	c.events = append(c.events, Event{TS: ts, Arg: arg, Worker: int32(worker), Kind: k})
}

// Workers returns the number of emitter slots.
func (t *Tracer) Workers() int { return len(t.cores) }

// Drops returns the total number of events dropped to the capacity bound.
func (t *Tracer) Drops() int {
	n := 0
	for i := range t.cores {
		n += t.cores[i].drops
	}
	return n
}

// Snapshot returns the collected trace for analysis. The tracer must be
// quiescent (no concurrent Emit).
func (t *Tracer) Snapshot() *Trace {
	tr := &Trace{PerCore: make([][]Event, len(t.cores))}
	for i := range t.cores {
		tr.PerCore[i] = append([]Event(nil), t.cores[i].events...)
	}
	return tr
}

// Reset discards collected events and restarts the clock.
func (t *Tracer) Reset() {
	for i := range t.cores {
		t.cores[i].events = t.cores[i].events[:0]
		t.cores[i].drops = 0
	}
	t.start = time.Now()
}

// Trace is an immutable collection of per-core event streams.
type Trace struct {
	PerCore [][]Event
}

// Span returns the first and last timestamp across all cores.
func (tr *Trace) Span() (lo, hi int64) {
	first := true
	for _, evs := range tr.PerCore {
		for _, e := range evs {
			if first || e.TS < lo {
				lo = e.TS
			}
			if first || e.TS > hi {
				hi = e.TS
			}
			first = false
		}
	}
	return lo, hi
}
