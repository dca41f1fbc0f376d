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
// A runtime owns Slots() = W + RS + SS thread indices, one formula over
// W = Config.Workers: RS, the root-shard count, is 4 × W, at least 16
// (enough that submitter counts well above the worker count still
// mostly avoid lock collisions), rounded up to a power of two and
// clamped to deps.MaxRootShards by deps.NewRootDomain; SS = serveSlots
// is a constant. There are three kinds of slot, each made exclusive by
// its own mechanism:
//
//	[0, W)           worker goroutines (one index per worker, for life)
//	[W, W+RS)        root-shard lease holders — exclusive while holding
//	                 shard i's registration lock (deps.RootLease): root
//	                 submitters, and non-worker goroutines whose event
//	                 decrement runs a deferred release (releaseExternal)
//	[W+RS, Slots)    inline-serving submitters — exclusive while holding
//	                 a slot of the serving pool (event.Slots, TryAcquire
//	                 only)
//
// A lease holder may wait for a shard lock, so a lease must never be
// held by a thread that something else waits on. Three facts make the
// shared root-shard range deadlock-free for completers:
//
//   - A lease holder runs no user code and never waits on an event.
//     Registration runs no body, and neither does a deferred release:
//     its bypass slot is not armed, so its runChain is given nil.
//   - A completer takes one shard lock (deps.RootDomain.AcquireFor).
//   - Lease holders take their shard locks before any dependency-chain
//     lock (deps.Locked's), so a completer waiting on a chain lock waits
//     for a holder that needs no shard.
//
// The serving range must stay apart. A serving submitter holds its index
// across arbitrary task bodies until its request completes, and a body
// may wait on an external event. If completers waited on serving
// indices, every index could be held by requests parked on events whose
// completers wait for an index: each side waiting on the other, forever.
// Serving never waits for an index at all (a busy pool falls back to the
// dispatch path).
//
// Each serving index also owns two hand-off cells (cellPair in
// queue.go): the compiled-graph nodes a level-0 body running on it
// offers (OfferNode) wait there as offers, not tasks. Only the index's
// holder pushes, but any thread may take, so a submitter that returns
// with another task's offer in its cells leaves it to the workers, as
// the queued work it is counted as; a thief makes it a task.
// Worker and root-shard indices have none.
//
// Ctx.Worker reports an index in [0, Slots()), so per-thread structures
// read through it (e.g. histogram shards) must be sized by
// Runtime.Slots, never by Config().Workers.

// serveSlots is the size of the inline-serving pool: while one is free,
// a SubmitReq caller executes the request's tasks itself instead of
// dispatching the root through the scheduler and sleeping on the
// completion latch — the two cross-goroutine hand-offs that dominate
// small-request serving latency. Excess concurrent submitters take the
// dispatch path, so the count bounds inline parallelism, never
// correctness. It is also the number of hand-off cell pairs.
const serveSlots = 2
