package core

// This file is the one home of the runtime's thread-index space and its
// partition into NUMA domains. Every structure indexed by a "worker"
// index — allocator free lists, dependency mailboxes, scheduler
// insertion queues, trace buffers, histogram recorder shards, bypass
// and context slots — is sized for the FULL slot space and partitioned
// by the same two formulas below. Do not restate the layout elsewhere;
// link here.
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
//
// # The domain partition
//
// With Config.Domains = D > 1 the runtime is sharded into D
// near-independent instances (per-domain scheduler stack, allocator,
// pending counters, park/wake state). Every slot has exactly one home
// domain, computed by slotDomain:
//
//   - Workers split into D contiguous, balanced blocks: worker w
//     belongs to domain w*D/W. Contiguity is what lets the Parker scan
//     only a domain's own slots and what a future CPU-pinning layer
//     would map onto physical NUMA nodes.
//   - Non-worker slots round-robin: slot s >= W belongs to domain
//     (s-W) % D, so submission shards, event completers and serving
//     slots spread their production evenly across domains. For the
//     root range this matches deps.ShardDomain.
//
// A producer enqueues into its own slot's domain; tasks cross domains
// only through the bounded work-shedding protocol (see runtime.go,
// shedTake) or an explicit cross-domain wake (sched.Parker.WakeOne).

// slotDomain maps a thread index onto its home domain for a runtime
// shaped (workers, domains). It is the only implementation of the
// partition formula; rt.slotDom materializes it per slot at New.
func slotDomain(slot, workers, domains int) int {
	if domains <= 1 {
		return 0
	}
	if slot < workers {
		return slot * domains / workers
	}
	return (slot - workers) % domains
}

// DomainOf returns the home domain of a thread index (as reported by
// Ctx.Worker), in [0, Config().Domains). Workloads use it to attribute
// an executed task to the domain of its executing worker; see the
// partition formula above.
func (rt *Runtime) DomainOf(slot int) int { return int(rt.slotDom[slot]) }

// Domains returns the runtime's domain count (Config.Domains after
// normalization; always >= 1).
func (rt *Runtime) Domains() int { return rt.ndomains }
