// Package repro is a from-scratch Go implementation of the task-based
// runtime system described in "Advanced Synchronization Techniques for
// Task-based Runtime Systems" (Álvarez, Sala, Maroñas, Roca, Beltran;
// PPoPP 2021): an OmpSs-2/Nanos6-style data-flow runtime with a
// wait-free dependency system, a delegation-based synchronized scheduler
// built on the novel Delegation Ticket Lock, a scalable pooled task
// allocator, and a lightweight CTF-inspired instrumentation backend.
//
// This package is the public API façade; the implementation lives in the
// internal packages (see DESIGN.md for the full inventory).
//
// # Quick start
//
// A runtime is built with functional options and closed when done.
// Tasks are ordered purely by their declared data accesses:
//
//	rt := repro.New(repro.WithWorkers(8))
//	defer rt.Close()
//
//	var x float64
//	err := rt.Run(func(c *repro.Ctx) {
//		c.Spawn(func(*repro.Ctx) { x = 21 }, repro.Out(&x))
//		c.Spawn(func(*repro.Ctx) { x *= 2 }, repro.InOut(&x))
//		c.Taskwait()
//	})
//	// err == nil and x == 42, with the two tasks ordered by their
//	// data dependency.
//
// A body may spawn any number of children: once 2 048 are in flight,
// Spawn first runs ready tasks on the calling thread, as Taskwait does.
// So do not hold a lock across Spawn that a task takes, and do not make
// children spin on a store the body makes after its spawn loop.
//
// # Results, errors, cancellation
//
// Task bodies can return typed results and errors. Submit runs a root
// task asynchronously and returns a Future; Go spawns a future-backed
// child from inside a task body:
//
//	f := repro.Submit(rt, func(c *repro.Ctx) (float64, error) {
//		return math.Sqrt(2), nil
//	})
//	v, err := f.Wait(ctx)
//
// A body panic is recovered into a *PanicError. Errors propagate to the
// submission root (Run's return value, Future.Wait) under the runtime's
// ErrorPolicy: FailFast (default) cancels the submission's remaining
// unstarted tasks, CollectAll runs everything and joins the errors.
// RunCtx and SubmitCtx honor context cancellation and deadlines: tasks
// that have not started when the context fires are drained without
// executing, while the dependency graph and task accounting unwind
// normally.
//
// # Work-sharing loops
//
// Loop-heavy kernels use ForEach and ForReduce instead of spawning one
// task per element: the loop is a single logical task (taskloop) whose
// iteration range is claimed in chunks by however many workers are
// idle. Its dependencies are declared once for the whole range
// (WithAccesses), it completes only when every chunk has drained, and
// reductions privatize one accumulator per worker, combined once at the
// end:
//
//	repro.ForEach(rt, 0, len(img), func(c *repro.Ctx, lo, hi int) {
//		for i := lo; i < hi; i++ { img[i] = blur(img, i) }
//	}, repro.WithGrain(1024))
//
//	sum, err := repro.ForReduce(rt, 0, n, 0.0,
//		func(a, b float64) float64 { return a + b },
//		func(c *repro.Ctx, lo, hi int, acc *float64) {
//			for i := lo; i < hi; i++ { *acc += x[i] * y[i] }
//		})
//
// Inside a task body, Ctx.Loop spawns a loop as a child task (waited on
// by Taskwait like any other child); Graph.AddLoop places a loop
// between named graph nodes.
//
// # External events (async completion)
//
// A task waiting on I/O should not hold a worker. The events API (the
// OmpSs-2 external-events construct) lets a body register out-of-band
// completions and return immediately; the task's dependency release,
// successors, and Future all wait for the last completion, fired from
// any goroutine:
//
//	f := repro.Submit(rt, repro.WithEvents(func(c *repro.Ctx, ev *repro.EventCounter) (int, error) {
//		ev.Add(1)
//		go func() { resp = callBackend(req); ev.Done() }()
//		return 0, nil // worker freed here; f resolves at Done
//	}), repro.Out(&resp))
//
// Ctx.After / Ctx.AfterFunc schedule completions on the runtime's
// timer queue (a worker-free sleep). A due timer fires on a runtime
// thread that is already awake: an idle worker polls the queue, one of
// them stays up while a deadline is less than a millisecond away, and a
// background goroutine fires what no thread polls. So AfterFunc's fn
// runs on whichever runtime thread fires it, and must be brief and
// never block. Ctx.Await and the typed Await join on a future while
// helping with other ready tasks, and Runtime.Drain seals new
// submissions and waits for all in-flight work — including
// event-parked tasks — before Close.
//
// # Priorities
//
// Latency-sensitive work can jump ahead of batch work with a priority
// clause in the access list — WithPriority(n) on Submit, Go, Spawn, a
// loop's WithAccesses, or Graph.SetPriority for named tasks. Priority
// orders *ready* tasks only: data dependencies always win, children
// inherit their parent's level, and a bounded courtesy slot keeps
// sustained high-priority load from starving the batch class. The
// synchronized, central and blocking schedulers honour it; the
// work-stealing baseline (the LLVM- and Intel-like variants of Figures
// 7–9) ignores priorities and deadlines. See
// DESIGN.md ("Priority scheduling and QoS") for the per-scheduler
// table.
//
// # Deadlines and priority inheritance
//
// Two clauses refine the priority dimension for serving workloads. On
// a runtime built with WithEDF, WithDeadline(d) stamps the task (and
// its children) with an absolute deadline, and the top priority level
// pops earliest-deadline-first instead of FIFO — so under a backlog
// the requests closest to missing their SLO run first.
// WithInheritance closes the priority-inversion window: when an
// elevated task registers behind unfinished lower-priority
// predecessors, those predecessors are promoted (transitively) to its
// level, re-ranked in the scheduler ahead of mid-priority work:
//
//	dl := repro.WithDeadline(2 * time.Millisecond)
//	f := repro.Submit(rt, stage1, repro.InOut(&row), dl,
//		repro.WithPriority(repro.MaxPriority), repro.WithInheritance())
//
// See DESIGN.md ("Deadline scheduling and priority inheritance") for
// the ordering invariants and the promotion protocol.
//
// For named-DAG workloads, the Graph builder offers a declarative layer
// on top of the same dependency engine:
//
//	g := repro.NewGraph().
//		Add("a", nil, func(c *repro.Ctx, deps map[string]any) (any, error) { return 2.0, nil }).
//		Add("b", []string{"a"}, func(c *repro.Ctx, deps map[string]any) (any, error) {
//			return deps["a"].(float64) * 21, nil
//		})
//	res, err := g.Run(ctx, rt)
//	// res["b"].Value == 42.0
//
// # Serving: compiled graph templates
//
// A serving loop runs the same DAG for every request; re-validating it
// per request is pure overhead. Compile freezes the graph once into an
// immutable template and Do stamps out one execution per request from
// pooled frames — a steady-state request allocates nothing, and one
// template serves any number of concurrent Do callers:
//
//	cg, err := g.Compile(rt)         // validate + freeze once
//	bi, _ := cg.NodeIndex("b")       // resolve names off the hot path
//	for {                            // per request, typically per client goroutine
//		e, err := cg.DoTimeout(ctx, 5*time.Millisecond)
//		if err == nil {
//			v, _ := e.ValueAt(bi)    // string-free result access
//			serve(v)
//		}
//		e.Release()                  // frame back to the pool
//	}
//
// DoTimeout gives the request a deadline observed like a context's —
// nodes not started by then drain with ErrTaskSkipped wrapping
// context.DeadlineExceeded — and still waits for the full drain, so
// the frame is always quiescent when it returns. MarkPure memoizes a
// node whose result depends only on its (pure) dependencies, with
// CompiledGraph.Invalidate dropping all memoized results; compiling
// with WithNodeStats hangs a zero-allocation latency histogram off
// every node (CompiledGraph.NodeLatency). See DESIGN.md ("Compiled
// graph templates") for the join-counter execution scheme and the
// inline-serving slots that let the submitting goroutine run its own
// request.
package repro

import (
	"time"

	"repro/internal/core"
	"repro/internal/deps"
)

// Core types re-exported from the runtime core.
type (
	// Runtime is a running task-runtime instance; see core.Runtime.
	Runtime = core.Runtime
	// Config selects workers, scheduler, dependency system, allocator,
	// error policy, tracing and noise injection; see core.Config. Most
	// callers build it through New's functional options.
	Config = core.Config
	// Ctx is the execution context passed to every task body.
	Ctx = core.Ctx
	// Variant names a preset runtime configuration from the paper's
	// evaluation ("optimized", "w/o DTLock", ...).
	Variant = core.Variant
	// AccessSpec is one clause of a task: a data access (In, Out,
	// InOut, RedSum, Commutative, WeakIn, ...) or a scheduling attribute
	// (WithPriority, WithDeadline, WithInheritance). Only those helpers
	// make one; see core.AccessSpec.
	AccessSpec = core.AccessSpec
	// ErrorPolicy selects fail-fast vs collect-all error propagation.
	ErrorPolicy = core.ErrorPolicy
	// PanicError wraps a panic recovered from a task body.
	PanicError = core.PanicError
	// Stats is a runtime snapshot (Runtime.Stats): the pool-wide parked
	// worker count, cumulative park/wake counters and the scheduler
	// backlog.
	Stats = core.Stats
)

// ErrTaskSkipped marks tasks drained without executing because their
// submission scope was cancelled; see core.ErrTaskSkipped.
var ErrTaskSkipped = core.ErrTaskSkipped

// NewVariant builds a runtime from one of the paper's preset variants
// (core.ConfigFor): the variant fixes the scheduler, dependency system,
// allocator and policy; workers and numaNodes shape the pinned pool. It
// panics on an unknown variant.
func NewVariant(v Variant, workers, numaNodes int) *Runtime {
	return core.New(core.ConfigFor(v, workers, numaNodes))
}

// Access declaration helpers (OmpSs-2 clause equivalents).
var (
	// RedSum declares a float64 sum reduction over n elements at p
	// (OmpSs-2 "reduction(+: ...)").
	RedSum = func(p *float64, n int) AccessSpec { return core.RedSpec(p, n, deps.OpSum) }
	// RedMax declares a max reduction.
	RedMax = func(p *float64, n int) AccessSpec { return core.RedSpec(p, n, deps.OpMax) }
	// RedMin declares a min reduction.
	RedMin = func(p *float64, n int) AccessSpec { return core.RedSpec(p, n, deps.OpMin) }
)

// In declares a read access on p ("in(p)").
func In[T any](p *T) AccessSpec { return core.In(p) }

// Out declares a write access on p ("out(p)").
func Out[T any](p *T) AccessSpec { return core.Out(p) }

// InOut declares a read-write access on p ("inout(p)").
func InOut[T any](p *T) AccessSpec { return core.InOut(p) }

// Commutative declares a commutative access on p ("commutative(p)").
func Commutative[T any](p *T) AccessSpec { return core.Commutative(p) }

// WeakIn declares a weak read access ("weakin(p)"): it never delays the
// task but anchors its children's dependencies on p.
func WeakIn[T any](p *T) AccessSpec { return core.WeakIn(p) }

// WeakInOut declares a weak read-write access ("weakinout(p)").
func WeakInOut[T any](p *T) AccessSpec { return core.WeakInOut(p) }

// MaxPriority is the highest scheduling priority level (level 0 is the
// default); WithPriority clamps to [0, MaxPriority].
const MaxPriority = core.MaxPriority

// WithPriority declares the task's scheduling priority level, as a
// clause beside the accesses of Go, Submit, Spawn or a loop's
// WithAccesses (the OmpSs-2 priority clause). It declares no
// data dependency: among *ready* tasks, higher levels are scheduled
// first — a priority never overtakes a data dependency, and sustained
// high-priority load cannot starve level 0 indefinitely (the scheduler
// grants the lowest waiting level a bounded courtesy slot). Children
// inherit the spawning task's level unless they carry their own
// clause; taskloop chunks run at their loop's level. Graph nodes take
// theirs through Graph.SetPriority. The work-stealing baseline (the
// LLVM- and Intel-like variants) ignores the clause.
//
//	f := repro.Submit(rt, handle, repro.InOut(&row), repro.WithPriority(repro.MaxPriority))
//	err := repro.ForEach(rt, 0, n, body, repro.WithAccesses(repro.WithPriority(1)))
func WithPriority(n int) AccessSpec { return core.Priority(n) }

// WithDeadline declares the task's scheduling deadline, d from now, as
// a clause beside the accesses like WithPriority. The
// deadline is resolved to an absolute instant on the runtime's
// monotonic clock (NowNS) at clause construction, so every task of one
// request can share a single clause value. Deadlines order ready tasks
// *within the top priority level* on runtimes built with WithEDF:
// earlier deadlines run first, deadline-less tasks last. A deadline is
// advisory — it never overtakes a data dependency and nothing is
// cancelled when it passes (pair with DoTimeout/RunCtx for hard
// cutoffs); bodies can compare Ctx.Deadline against NowNS to shed late
// work. Children inherit the deadline unless they carry their own
// clause; Graph nodes take theirs through Graph.SetDeadline.
//
//	f := repro.Submit(rt, handle, repro.InOut(&row),
//		repro.WithPriority(repro.MaxPriority), repro.WithDeadline(2*time.Millisecond))
func WithDeadline(d time.Duration) AccessSpec {
	return core.Deadline(core.NowNS() + d.Nanoseconds())
}

// WithDeadlineAt is WithDeadline with an absolute deadline on the
// runtime's monotonic clock (nanoseconds, as returned by NowNS): use
// it to stamp one shared deadline on tasks created at different times,
// for example the stages of a request pipeline.
func WithDeadlineAt(absNS int64) AccessSpec { return core.Deadline(absNS) }

// WithInheritance declares the task a priority-inheritance donor: when
// it registers, any not-yet-satisfied predecessor task it depends on
// is promoted — transitively — to this task's effective priority
// level, so a low-priority task holding a dependency of
// high-priority work is re-ranked ahead of mid-priority work instead
// of starving behind it (the classic priority-inversion window).
// Promotion re-ranks tasks already waiting in the scheduler; a
// predecessor that is already executing keeps its worker. A runtime
// records predecessors only from its first donor on, so the donor's
// immediate predecessors are always promoted, but the transitive walk
// passes only through tasks registered after the runtime's first
// donor was created. It pairs with WithPriority:
//
//	f := repro.Submit(rt, handle, repro.In(&row),
//		repro.WithPriority(repro.MaxPriority), repro.WithInheritance())
func WithInheritance() AccessSpec { return core.Inherit() }

// NowNS returns the current time on the runtime's monotonic deadline
// clock (nanoseconds since process start): the clock WithDeadlineAt
// and Ctx.Deadline values live on.
func NowNS() int64 { return core.NowNS() }

// Error-propagation policies (see ErrorPolicy).
const (
	FailFast   = core.FailFast
	CollectAll = core.CollectAll
)

// Evaluation variant presets (paper §6).
const (
	VariantOptimized      = core.VariantOptimized
	VariantNoJemalloc     = core.VariantNoJemalloc
	VariantNoWaitFreeDeps = core.VariantNoWaitFreeDeps
	VariantNoDTLock       = core.VariantNoDTLock
	VariantGOMPLike       = core.VariantGOMPLike
	VariantLLVMLike       = core.VariantLLVMLike
	VariantIntelLike      = core.VariantIntelLike
)
