package deps

import (
	"math/bits"
	"sync/atomic"
	"unsafe"

	"repro/internal/locks"
)

// MaxRootShards bounds the shard count of a RootDomain: the lease held
// during a registration is a uint64 bitmask of shard indices.
const MaxRootShards = 64

// RootDomain is a sharded registration domain for root tasks: the
// dependency chains of the runtime's global domain, partitioned across
// shards by address hash so that concurrent submissions touching
// unrelated addresses register in parallel.
//
// Every per-address chain lives entirely inside the shard its address
// hashes to, so the chain protocols of both dependency systems are
// untouched: a shard is just a smaller single-writer domain. The
// single-writer rule is preserved per shard by the shard's registration
// mutex, and each shard doubles as one *submitter slot* — the holder of
// shard i's lock is the exclusive user of thread-local worker index
// workers+i (dependency mailbox, allocator free list, scheduler
// insertion, trace buffer), which is what lets many goroutines submit
// concurrently without sharing those structures.
//
// A submission whose accesses span several shards takes every involved
// shard lock in ascending index order (AcquireMask), which makes cross-shard
// submissions deadlock-free while still ordering same-address
// submissions through their common shard.
type RootDomain struct {
	// shift turns the hashed address into a shard index: the top
	// log2(len(shards)) bits of the multiplied hash.
	shift uint
	// rr rotates access-less submissions across shards so independent
	// submitters do not all serialize on shard 0.
	rr     atomic.Uint32
	shards []rootShard
}

// rootShard is one shard: the registration lock and the Node whose
// domain maps hold the shard's chain tails. The node is never
// registered or unregistered itself — like the global task it stands
// in for, it exists only as the owner of its children's chains — so no
// Unregister ever drops its tail pins. The registrar sweeps the map
// instead: once it has grown to twice the size the last sweep left (and
// to at least sweepFloor entries), the lease holder deletes every chain
// whose tail has already released and drops that tail's pin (see
// WaitFree.sweep and Locked.sweep). A later root on a swept address
// starts a fresh chain, born satisfied — exactly what chaining after
// the released tail would have delivered. The amortized sweep keeps a
// shard's retention proportional to its unreleased tails, not to every
// address ever submitted.
//
// The registration lock is the repository's own Partitioned Ticket
// Lock, like every other lock on the runtime's synchronization paths
// (scheduler insertion queues, DTLock): a FIFO spin lock whose waiters
// pay for serialization in cycles. A sync.Mutex here would park
// waiters so cheaply that — as with Go's scalable allocator, which
// alloc.Serial exists to counteract — the very contention this
// sharding removes would be invisible to measurement on small hosts.
type rootShard struct {
	mu *locks.PTLock
	// sweepAt is twice the map size the last sweep left; written only
	// by the lease holder.
	sweepAt int
	node    Node
}

// sweepFloor is the smallest shard map the registrar sweeps: below it a
// sweep costs more map iteration than the tails it could free are worth.
const sweepFloor = 64

// sweepDue reports whether a shard map of n entries has grown enough
// since the last sweep to be swept again.
func (sh *rootShard) sweepDue(n int) bool { return n >= max(sh.sweepAt, sweepFloor) }

// NewRootDomain returns a root domain of n shards, clamped to
// [1, MaxRootShards] and rounded up to a power of two; Shards reports
// the count built.
func NewRootDomain(n int) *RootDomain {
	n = min(max(n, 1), MaxRootShards)
	sz := 1
	for sz < n {
		sz <<= 1
	}
	d := &RootDomain{shift: uint(64 - bits.Len(uint(sz-1))), shards: make([]rootShard, sz)}
	for i := range d.shards {
		d.shards[i].mu = locks.NewPTLock(locks.DefaultPTLockSize)
	}
	return d
}

// Shards returns the shard count (a power of two).
func (d *RootDomain) Shards() int { return len(d.shards) }

// shardOf hashes an address to its shard index. Fibonacci hashing: the
// low bits of a Go address are alignment zeros, the multiplication
// spreads them across the high bits the shift keeps.
func (d *RootDomain) shardOf(p unsafe.Pointer) int {
	return int((uint64(uintptr(p)) * 0x9E3779B97F4A7C15) >> d.shift)
}

// shard returns the shard owning addr's chain.
func (d *RootDomain) shard(p unsafe.Pointer) *rootShard {
	return &d.shards[d.shardOf(p)]
}

// RootLease is a held set of shard registration locks covering one root
// submission. It is a value type: AcquireMask/Release allocate nothing.
type RootLease struct {
	d    *RootDomain
	mask uint64
	slot int
}

// Bit returns the lease-mask bit of the shard owning p's chain.
func (d *RootDomain) Bit(p unsafe.Pointer) uint64 { return 1 << uint(d.shardOf(p)) }

// Acquire leases the shards covering the addresses of accs: AcquireMask
// of their Bits.
func (d *RootDomain) Acquire(accs []AccessSpec) RootLease {
	var mask uint64
	for i := range accs {
		mask |= d.Bit(accs[i].Addr)
	}
	return d.AcquireMask(mask)
}

// AcquireMask locks every shard in mask (a union of Bits), in ascending
// index order. An empty mask — a submission with no accesses — still
// leases one shard (rotating across them) because the submitter needs
// exclusive use of a slot's thread-local structures even when there is
// no chain to join. The caller must Release the lease after
// RegisterRoot.
func (d *RootDomain) AcquireMask(mask uint64) RootLease {
	if mask == 0 {
		mask = 1 << (uint64(d.rr.Add(1)) & uint64(len(d.shards)-1))
	}
	for m := mask; m != 0; {
		i := bits.TrailingZeros64(m)
		m &^= 1 << uint(i)
		d.shards[i].mu.Lock()
	}
	return RootLease{d: d, mask: mask, slot: bits.TrailingZeros64(mask)}
}

// AcquireFor is AcquireMask for a submission with no data accesses whose
// caller holds a stable spreading key — typically the address of a
// pooled per-request structure (the compiled-graph serving path). The
// key hashes straight to one shard with the same Fibonacci hash the
// address path uses, so high-rate access-less submitters spread across
// shards without sharing the round-robin counter's cache line, and
// repeat submissions keyed by the same frame stay on one shard, whose
// thread-local structures (allocator free list, dependency mailbox)
// they keep warm.
func (d *RootDomain) AcquireFor(key uintptr) RootLease {
	i := int((uint64(key) * 0x9E3779B97F4A7C15) >> d.shift)
	d.shards[i].mu.Lock()
	return RootLease{d: d, mask: 1 << uint(i), slot: i}
}

// Slot returns the lease's submitter-slot index: the lowest held shard.
// The runtime offsets it by the worker count to obtain the thread-local
// worker index the lease holder may use.
func (l RootLease) Slot() int { return l.slot }

// Release unlocks every shard held by the lease.
func (l RootLease) Release() {
	for m := l.mask; m != 0; {
		i := bits.TrailingZeros64(m)
		m &^= 1 << uint(i)
		l.d.shards[i].mu.Unlock()
	}
}
