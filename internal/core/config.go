// Package core is the task-based runtime itself: the Nanos6-style worker
// pool, task lifecycle, nesting and taskwait semantics, wired to the
// dependency systems (internal/deps), schedulers (internal/sched),
// allocators (internal/alloc) and tracer (internal/trace) that the paper
// evaluates individually and in combination.
package core

import (
	"runtime"
	"time"
)

// SchedulerKind selects a scheduler design (paper §3 and baselines).
type SchedulerKind uint8

const (
	// SchedSyncDTLock is the paper's synchronized scheduler: SPSC buffer
	// queues + Delegation Ticket Lock (Listing 5).
	SchedSyncDTLock SchedulerKind = iota
	// SchedCentralPTLock is the "w/o DTLock" variant: one PTLock guards
	// the central queue for both insertion and retrieval.
	SchedCentralPTLock
	// SchedBlocking is a GOMP-style mutex+condvar central queue.
	SchedBlocking
	// SchedWorkStealing is an LLVM-OpenMP-style per-worker deque design.
	SchedWorkStealing
)

// DepsKind selects a dependency system implementation (paper §2).
type DepsKind uint8

const (
	// DepsWaitFree is the paper's ASM-based wait-free system.
	DepsWaitFree DepsKind = iota
	// DepsLocked is the fine-grained-locking baseline ("w/o wait-free
	// dependencies").
	DepsLocked
)

// AllocKind selects the task-memory allocator (paper §4).
type AllocKind uint8

const (
	// AllocPooled emulates jemalloc's per-thread caches.
	AllocPooled AllocKind = iota
	// AllocSerial emulates a serializing system allocator ("w/o
	// jemalloc").
	AllocSerial
)

// PolicyKind selects the unsynchronized scheduling policy.
type PolicyKind uint8

const (
	// PolicyFIFO runs tasks in readiness order (Nanos6 default).
	PolicyFIFO PolicyKind = iota
	// PolicyLIFO runs the most recently readied task first.
	PolicyLIFO
	// PolicyLocality keeps tasks on the NUMA node whose insertion queue
	// produced them (only meaningful with SchedSyncDTLock).
	PolicyLocality
)

// NoiseConfig simulates OS noise for the Figure 11 experiment: after the
// DTLock owner has performed AfterServes service operations (delegation
// serves or SPSC drains), it is stalled for Duration as if a kernel
// interrupt had preempted it, and the interval is logged as a kernel
// event in the trace.
type NoiseConfig struct {
	AfterServes int
	Duration    time.Duration
}

// Config assembles a runtime variant.
type Config struct {
	// Workers is the number of worker threads (simulated cores). 0
	// selects runtime.NumCPU().
	Workers int
	// NUMANodes controls the number of SPSC insertion queues of the
	// sync scheduler. 0 selects 1.
	NUMANodes int
	// SPSCCap is the capacity of each insertion queue (0: 256).
	SPSCCap int

	Scheduler SchedulerKind
	Deps      DepsKind
	Alloc     AllocKind
	Policy    PolicyKind

	// EDF makes the top priority level deadline-aware: the highest
	// class pops earliest-deadline-first (sched.EDF) instead of in the
	// configured Policy order, using the absolute deadlines tasks carry
	// via the Deadline clause (deadline-less tasks sort last, FIFO among
	// themselves). Lower levels keep the configured policy. The
	// work-stealing baseline ignores it, like priorities — see
	// sched.WorkStealing.
	EDF bool

	// PinWorkers locks each worker goroutine to an OS thread, the
	// closest Go equivalent of the paper's one-thread-per-core binding.
	PinWorkers bool

	// OnError selects how task errors propagate through a submission
	// scope: FailFast (default) cancels the scope on the first error so
	// unstarted tasks drain without executing; CollectAll runs every
	// task and joins the errors at the root.
	OnError ErrorPolicy

	// TraceCapacity, when non-zero, enables the instrumentation backend
	// with that many events per core.
	TraceCapacity int

	// Noise optionally injects simulated OS noise (Figure 11).
	Noise NoiseConfig
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.NUMANodes <= 0 {
		c.NUMANodes = 1
	}
	if c.SPSCCap <= 0 {
		c.SPSCCap = 256
	}
	return c
}

// Variant names a preset runtime configuration used throughout the
// paper's evaluation (§6).
type Variant string

// The ablation variants of Figures 4-6 and the runtime-comparison
// stand-ins of Figures 7-9. GOMPLike and LLVMLike are *design* stand-ins
// built from this repository's own baselines (blocking central queue,
// work-stealing deques), not bindings to the external runtimes; see
// DESIGN.md for the substitution rationale.
const (
	VariantOptimized      Variant = "optimized"
	VariantNoJemalloc     Variant = "w/o jemalloc"
	VariantNoWaitFreeDeps Variant = "w/o wait-free dependencies"
	VariantNoDTLock       Variant = "w/o DTLock"
	VariantGOMPLike       Variant = "GOMP-like"
	VariantLLVMLike       Variant = "LLVM-like"
	VariantIntelLike      Variant = "Intel-like"
)

// Variants returns the ablation set of Figures 4-6 in plot order.
func Variants() []Variant {
	return []Variant{VariantOptimized, VariantNoJemalloc, VariantNoWaitFreeDeps, VariantNoDTLock}
}

// ComparisonVariants returns the runtime-comparison set of Figures 7-9.
func ComparisonVariants() []Variant {
	return []Variant{VariantOptimized, VariantGOMPLike, VariantLLVMLike, VariantIntelLike}
}

// ConfigFor returns the Config preset of a variant with the given worker
// and NUMA-node counts.
func ConfigFor(v Variant, workers, numaNodes int) Config {
	c := Config{Workers: workers, NUMANodes: numaNodes, PinWorkers: true}
	switch v {
	case VariantOptimized:
		// Sync scheduler + wait-free deps + pooled allocator.
	case VariantNoJemalloc:
		c.Alloc = AllocSerial
	case VariantNoWaitFreeDeps:
		c.Deps = DepsLocked
	case VariantNoDTLock:
		c.Scheduler = SchedCentralPTLock
	case VariantGOMPLike:
		c.Scheduler = SchedBlocking
		c.Deps = DepsLocked
		c.Alloc = AllocSerial
	case VariantLLVMLike:
		c.Scheduler = SchedWorkStealing
		c.Deps = DepsLocked
	case VariantIntelLike:
		c.Scheduler = SchedWorkStealing
		c.Deps = DepsLocked
		c.Policy = PolicyLIFO
	default:
		panic("core: unknown variant " + string(v))
	}
	return c
}
