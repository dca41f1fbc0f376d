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
// A runtime owns Slots() = Workers + RootShards + EventSlots +
// ServeSlots thread indices, made exclusive by three mechanisms:
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
