// Package counter provides a cache-line-sharded counter for hot-path
// accounting. A single shared atomic that every worker increments on
// every task create/complete turns into a cache-line ping-pong under
// fine task granularity — exactly the class of runtime-internal
// overhead the paper's techniques exist to remove. Sharded splits the
// count across per-worker cache lines so the common operations (Add on
// the caller's own shard) never contend; reading the total (Sum) walks
// all shards and is reserved for cold paths: diagnostics, quiescence
// checks, shutdown.
package counter

import "sync/atomic"

// shard pads one counter onto its own cache line so neighbouring
// shards never false-share.
type shard struct {
	v atomic.Int64
	_ [56]byte
}

// Sharded is a counter distributed over per-worker shards.
//
// Consistency model: Add is atomic per shard, so Sum is the sum of
// per-shard snapshots taken at different instants — it is *eventually
// exact*: while adders are active, Sum may transiently miss in-flight
// deltas or even dip below a concurrent true value, but once the
// adders quiesce (no Add running or in flight), Sum returns the exact
// total of all completed Adds. Callers that need an exact read (the
// worker-stop check, LiveTasks assertions in tests) therefore only
// consult Sum at quiescence points, or poll it until it settles. An Add
// ordered, in the sequentially consistent order of Go atomics, before
// an atomic operation the summer made before calling Sum is always
// included — the runtime's drain gate rests on that.
type Sharded struct {
	shards []shard
}

// NewSharded returns a counter with n shards, one per concurrent
// caller; the runtime makes one per index of its thread-index space
// (Runtime.Slots).
func NewSharded(n int) *Sharded {
	if n < 1 {
		n = 1
	}
	return &Sharded{shards: make([]shard, n)}
}

// Add applies delta to the caller's shard. The shard index must be the
// caller's own worker index so concurrent callers never share a cache
// line; any index in range is correct, just slower when shared.
func (c *Sharded) Add(shard int, delta int64) {
	c.shards[shard].v.Add(delta)
}

// Sum returns the total across all shards (see the consistency note on
// Sharded).
func (c *Sharded) Sum() int64 {
	var t int64
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}
