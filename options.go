package repro

import (
	"time"

	"repro/internal/core"
)

// Option configures a runtime built with New.
type Option func(*core.Config)

// New builds and starts a runtime from functional options; unset fields
// take the core defaults (workers = NumCPU, one NUMA node, the paper's
// optimized scheduler/deps/allocator, fail-fast errors). The caller
// must Close the runtime.
func New(opts ...Option) *Runtime {
	var cfg core.Config
	for _, o := range opts {
		o(&cfg)
	}
	return core.New(cfg)
}

// Topology is the one description of the worker pool's shape: how many
// workers it has, how many NUMA nodes the sync scheduler's insertion
// queues model, and whether workers are pinned to OS threads. It is
// applied with WithTopology; WithWorkers is shorthand for its Workers
// field.
//
// Zero fields leave the corresponding configuration untouched, so a
// Topology composes with other options regardless of order.
type Topology struct {
	// Workers is the number of worker threads (simulated cores). 0
	// leaves the worker count unset (NumCPU).
	Workers int

	// NUMANodes is the number of SPSC insertion queues of the sync
	// scheduler (§3.1: one queue and lock per NUMA node), and the node
	// count the Locality policy keeps tasks on. 0 leaves the default (1).
	NUMANodes int

	// PinWorkers locks each worker goroutine to an OS thread, the
	// closest Go equivalent of the paper's one-thread-per-core binding.
	// false leaves the configuration untouched (it never unpins).
	PinWorkers bool
}

// WithTopology shapes the worker pool from a Topology. It is the
// documented way to size the pool; see Topology for the field
// semantics. Only non-zero fields are applied:
//
//	// 8 workers over two NUMA nodes, pinned:
//	rt := repro.New(repro.WithTopology(repro.Topology{
//		Workers:    8,
//		NUMANodes:  2,
//		PinWorkers: true,
//	}))
func WithTopology(t Topology) Option {
	return func(c *core.Config) {
		if t.Workers > 0 {
			c.Workers = t.Workers
		}
		if t.NUMANodes > 0 {
			c.NUMANodes = t.NUMANodes
		}
		if t.PinWorkers {
			c.PinWorkers = true
		}
	}
}

// WithWorkers sets the number of worker threads (simulated cores).
// Equivalent to WithTopology(Topology{Workers: n}).
func WithWorkers(n int) Option {
	return WithTopology(Topology{Workers: n})
}

// WithSPSCCap sets the capacity of each insertion queue.
func WithSPSCCap(n int) Option {
	return func(c *core.Config) { c.SPSCCap = n }
}

// WithEDF makes the top priority level deadline-aware: among ready
// tasks of the highest class, the one with the earliest absolute
// deadline (WithDeadline) runs first; deadline-less tasks sort last
// and keep FIFO order among themselves. Lower priority levels keep the
// configured policy. The work-stealing baseline (the LLVM- and
// Intel-like variants) ignores deadlines.
func WithEDF() Option {
	return func(c *core.Config) { c.EDF = true }
}

// WithErrorPolicy selects how task errors propagate: FailFast (the
// default) or CollectAll.
func WithErrorPolicy(p ErrorPolicy) Option {
	return func(c *core.Config) { c.OnError = p }
}

// WithTracing enables the instrumentation backend with the given
// per-core event capacity (<= 0 selects the default capacity).
func WithTracing(capacity int) Option {
	return func(c *core.Config) {
		if capacity <= 0 {
			capacity = 1 << 16
		}
		c.TraceCapacity = capacity
	}
}

// CompileOption configures a Graph.Compile call. Compiling with any
// option always builds a fresh template (option-free compiles are
// cached on the Graph).
type CompileOption func(*CompiledGraph)

// NodeStat is one node execution's latency sample, delivered to the
// WithNodeStats hook synchronously on the executing worker.
type NodeStat struct {
	// Name and Index identify the node (Index is its topological
	// position, as returned by CompiledGraph.NodeIndex).
	Name  string
	Index int
	// Worker is the worker that executed the node's body.
	Worker int
	// Elapsed is the body's run time; 0 for memoized hits.
	Elapsed time.Duration
	// Err is the body's raw error (pre-wrapping), nil on success.
	Err error
	// Memoized marks a pure-node cache hit: the body did not run.
	Memoized bool
}

// WithNodeStats enables per-node latency recording on the compiled
// template: every node execution is timed and recorded into a per-node
// zero-allocation histogram (CompiledGraph.NodeLatency), and hook — if
// non-nil — additionally receives each sample synchronously on the
// executing worker, so it must be cheap and safe for concurrent calls.
// A nil hook records histograms only. The timing itself is off unless
// this option is given, keeping the default hot path clock-free.
func WithNodeStats(hook func(NodeStat)) CompileOption {
	return func(cg *CompiledGraph) {
		cg.statsOn = true
		cg.stats = hook
	}
}
