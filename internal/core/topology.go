package core

// This file is the one home of the runtime's thread-index space. Every
// structure indexed by a "worker" index — allocator free lists,
// dependency mailboxes, scheduler insertion queues, trace buffers,
// histogram recorder shards, bypass and context slots — is sized for
// the FULL slot space below. Do not restate the layout elsewhere; link
// here.
//
// # The slot space
//
// A runtime owns Slots() = W + RS + ES + SS thread indices, one formula
// over W = Config.Workers: RS, the root-shard count, is 4 × W, at least
// 16 (enough that submitter counts well above the worker count still
// mostly avoid lock collisions), rounded up to a power of two and
// clamped to deps.MaxRootShards by deps.NewRootDomain; ES = eventSlots
// and SS = serveSlots are constants. They are made exclusive by three
// mechanisms:
//
//	[0, W)             worker goroutines (one index per worker, for life)
//	[W, W+RS)          root submitters — exclusive while holding shard
//	                   i's registration lock (deps.RootLease)
//	[W+RS, W+RS+ES)    event completers — exclusive while holding a slot
//	                   of the completer pool (event.Slots, Acquire)
//	[W+RS+ES, Slots)   inline-serving submitters — exclusive while
//	                   holding a slot of the serving pool (a second
//	                   event.Slots, TryAcquire only)
//
// The last two ranges are one implementation — an exclusive index lent
// to a non-worker goroutine — but must stay two pools. A serving
// submitter holds its index across arbitrary task bodies until its
// request completes; a completer waits in Acquire until an index
// frees. Sharing one pool, every index could be held by requests parked
// on external events while the completers that would fire those events
// wait for an index: each side waiting on the other, forever. Apart,
// completer critical sections are short and never run user code, so
// Acquire always makes progress, and serving never waits at all.
//
// Ctx.Worker reports an index in [0, Slots()), so per-thread structures
// read through it (e.g. histogram shards) must be sized by
// Runtime.Slots, never by Config().Workers.

const (
	// eventSlots is the size of the completer pool: the exclusive
	// indices that external event decrements (EventCounter.Done from
	// non-worker goroutines, timers fired by the timer queue's fallback
	// goroutine) borrow to run the deferred release path. It bounds how
	// many external completions release concurrently, never correctness:
	// excess completers wait for a slot.
	eventSlots = 4

	// serveSlots is the size of the inline-serving pool: while one is
	// free, a SubmitReq caller executes the request's tasks itself
	// instead of dispatching the root through the scheduler and sleeping
	// on the completion latch — the two cross-goroutine hand-offs that
	// dominate small-request serving latency. Excess concurrent
	// submitters take the dispatch path, so the count bounds inline
	// parallelism, never correctness.
	serveSlots = 2
)
