package repro

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/counter"
)

// Histogram is the runtime's zero-allocation log-scale latency
// histogram (Record is one atomic add; Quantile/Mean/Count are
// cold-path merges). CompiledGraph.NodeLatency returns one per node
// when the template was compiled with WithNodeStats.
type Histogram = counter.Histogram

// CompiledGraph is the compile-once / instantiate-per-request form of a
// Graph: Compile validates, cycle-checks and topologically freezes the
// DAG into an immutable index-based node table, and Do stamps one
// execution per request from pooled frames — result slots, task shells
// from the runtime's allocator and a recycled error scope — so a
// steady-state request allocates nothing. A template is immutable and
// safe for concurrent Do from any number of goroutines; it is bound to
// the runtime it was compiled for.
//
// Where the interpreted path re-derives the name-level ordering per
// request through the address-matched dependency system (one sentinel
// byte per node, In/Out access chains), Compile resolves those edges
// once: each node carries its successor indices, and a frame holds one
// join counter per node, reset per request. A finished node decrements
// each successor's counter, and the thread that readies a node goes on
// with it as a plain call inside the task it is already running — one
// readied successor per node, when it has the level and deadline of the
// node before it; the others are offered, access-free, to the workers
// (on a request served inline as the frame's offer records, waiting in
// the submitter's hand-off cells: the submitter takes them back as
// calls inside the request's root, and only one an idle worker steals
// becomes a task). A request of a template without priorities or
// deadlines served inline is therefore one task, however long its
// chains and however wide its fan-outs, and elsewhere only a fan-out's
// siblings and changes of level or deadline cost a task each
// (DESIGN.md, "Compiled hand-off"). The differential test
// against the interpreted path pins the equivalence. Fan-in/fan-out
// width does not affect the zero-allocation property.
type CompiledGraph struct {
	rt    *Runtime
	nodes []cnode
	index map[string]int // name → topological index; off the hot path

	// roots are the in-degree-zero node indices the request's root task
	// readies; everything else is readied by its last-completing
	// dependency. attrs marks a template with an elevated or deadlined
	// node, hasDL one with a deadlined node (see GraphExec.spawn).
	roots []int32
	attrs bool
	hasDL bool

	// frames pools per-request execution state; see GraphExec.
	frames sync.Pool

	// memoVer is the memoization epoch: a memo entry is valid only if
	// stamped with the current version, and Invalidate bumps it. memo
	// has one slot per node, used only by effectively-pure nodes.
	memoVer atomic.Uint64
	memo    []atomic.Pointer[memoEntry]

	// stats/statsOn/hists implement WithNodeStats; hists has one
	// per-worker-sharded histogram per node.
	stats   func(NodeStat)
	statsOn bool
	hists   []*Histogram
}

// cnode is one frozen node: everything Do needs, resolved to
// topological indices at compile time — no string maps on the hot path.
type cnode struct {
	name  string
	fn    GraphFunc
	deps  []int32 // topological indices of dependencies (the join count)
	succs []int32 // topological indices of dependents
	pri   int
	dl    time.Duration // request-relative deadline; 0 = none
	pure  bool          // MarkPure and every transitive dependency pure
}

// memoEntry is one memoized pure-node result, valid while ver matches
// the template's memoVer.
type memoEntry struct {
	ver uint64
	val any
}

// Compile freezes the graph into a CompiledGraph bound to rt,
// reporting construction errors (duplicate names, unknown or self
// dependencies, cycles) exactly as Run does. The template snapshots
// the builder: later Graph mutations do not affect it. An option-free
// compile is cached on the Graph (and invalidated by mutation), so
// repeated Compile/Run calls share one template and frame pool;
// compiles with options always build a fresh template.
func (g *Graph) Compile(rt *Runtime, opts ...CompileOption) (*CompiledGraph, error) {
	if cg := g.compiled.Load(); len(opts) == 0 && cg != nil && cg.rt == rt {
		return cg, nil
	}
	order, err := g.validate()
	if err != nil {
		return nil, err
	}
	cg := &CompiledGraph{rt: rt, index: make(map[string]int, len(order))}
	for i, n := range order {
		cg.index[n.name] = i
	}
	cg.nodes = make([]cnode, len(order))
	for i, n := range order {
		cn := &cg.nodes[i]
		cn.name = n.name
		cn.fn = n.fn
		// Clamped here, as a task's level is, so two nodes compare
		// equal exactly when their tasks would run at one level.
		cn.pri = min(max(n.pri, 0), MaxPriority)
		cn.dl = n.dl
		cg.hasDL = cg.hasDL || n.dl != 0
		cg.attrs = cg.attrs || cn.pri != 0 || n.dl != 0
		cn.deps = make([]int32, len(n.deps))
		// Dependencies precede dependents in topological order, so
		// their effective purity (and this node's successor edges)
		// resolve in one pass.
		pure := n.pure
		for j, d := range n.deps {
			di := cg.index[d]
			cn.deps[j] = int32(di)
			cg.nodes[di].succs = append(cg.nodes[di].succs, int32(i))
			pure = pure && cg.nodes[di].pure
		}
		cn.pure = pure
		if len(n.deps) == 0 {
			cg.roots = append(cg.roots, int32(i))
		}
	}
	cg.memo = make([]atomic.Pointer[memoEntry], len(order))
	for _, o := range opts {
		o(cg)
	}
	if cg.statsOn {
		cg.hists = make([]*Histogram, len(order))
		for i := range cg.hists {
			// Sized by the full thread-index space, not the worker
			// count: node bodies execute on inline-serving submitter
			// slots too (Runtime.Slots).
			cg.hists[i] = counter.NewHistogram(rt.Slots())
		}
	}
	cg.frames.New = func() any { return cg.newFrame() }
	if len(opts) == 0 {
		g.compiled.Store(cg)
	}
	return cg, nil
}

// Len returns the node count.
func (cg *CompiledGraph) Len() int { return len(cg.nodes) }

// NodeIndex resolves a task name to its topological node index, for
// string-free result access via GraphExec.ValueAt in serving loops.
func (cg *CompiledGraph) NodeIndex(name string) (int, bool) {
	i, ok := cg.index[name]
	return i, ok
}

// NodeName returns the name of the node at topological index i.
func (cg *CompiledGraph) NodeName(i int) string { return cg.nodes[i].name }

// NodeLatency returns the named node's latency histogram
// (nanoseconds), or nil when the template was compiled without
// WithNodeStats or the name is unknown. Memoized hits record 0.
func (cg *CompiledGraph) NodeLatency(name string) *Histogram {
	if cg.hists == nil {
		return nil
	}
	i, ok := cg.index[name]
	if !ok {
		return nil
	}
	return cg.hists[i]
}

// Invalidate drops every memoized pure-node result: the next request
// recomputes them (and re-memoizes under the new version). Safe to
// call concurrently with Do.
func (cg *CompiledGraph) Invalidate() { cg.memoVer.Add(1) }

// Do executes one request against the template: it instantiates a
// pooled frame, submits the DAG as one root task and blocks until the
// whole request completed, failed, or drained. The returned GraphExec
// holds the per-node results — read them with Value/ValueAt, then
// Release the frame back to the pool. The error is the request's
// aggregate (nil when every node succeeded), also available as
// GraphExec.Err; cancellation and FailFast/CollectAll behave exactly
// as in Graph.Run. Steady-state Do allocates nothing beyond what the
// node bodies themselves allocate.
func (cg *CompiledGraph) Do(ctx context.Context) (*GraphExec, error) {
	return cg.do(ctx, 0)
}

// DoTimeout is Do with a per-request deadline, observed like a context
// deadline: nodes that have not started d after the call drain with
// ErrTaskSkipped wrapping context.DeadlineExceeded, and DoTimeout still
// waits for the full drain before returning, so the frame is quiescent
// and reusable. Nodes whose bodies already started run to completion
// (poll Ctx.Err to stop early). d ≤ 0 means no deadline; a deadline
// costs a clock read per node start and allocates nothing.
func (cg *CompiledGraph) DoTimeout(ctx context.Context, d time.Duration) (*GraphExec, error) {
	return cg.do(ctx, d)
}

func (cg *CompiledGraph) do(ctx context.Context, d time.Duration) (*GraphExec, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e := cg.frames.Get().(*GraphExec)
	e.begin()
	cg.rt.SubmitReq(ctx, e.req, d, e.root)
	e.err = e.req.Wait()
	return e, e.err
}

// GraphExec is one pooled per-request execution frame of a
// CompiledGraph: the per-node result slots of one Do, plus the
// pre-stamped state that makes instantiation allocation-free — join
// counters reset per request, node bodies bound to (frame, index)
// once, and dependency-value maps whose key sets are stable so
// per-request writes never grow them.
//
// A frame is owned by exactly one request at a time: Do hands it out,
// Release returns it to the template's pool. After Release the frame's
// values are invalid and no method may be called until a future Do
// hands it out again. Concurrent Do calls use distinct frames, so the
// counters of in-flight requests never interact.
type GraphExec struct {
	cg  *CompiledGraph
	req *core.Req

	// pending is the per-request join counter of each node, initialized
	// to the dependency count — one for a root node, whose one
	// dependency is the request's root task — and decremented once per
	// completed dependency; the decrement to zero readies the node
	// (advance). The atomic read-modify-write chain on a counter is also
	// the happens-before edge that publishes every dependency's result
	// slot to the node's body. begin initializes it with plain stores;
	// advance lowers it with atomic.AddInt32.
	pending []int32
	bodies  []func(*Ctx)
	offers  []core.Offer
	root    func(*Ctx)
	depm    []map[string]any

	// start is the request's start on the runtime's deadline clock
	// (NowNS), stamped by begin on templates with a deadlined node: a
	// node's absolute deadline is start plus its offset.
	start int64

	vals  []any
	errs  []error
	state []uint8

	err error // aggregate of the last Do
}

// Per-node outcome states; nodeNotRun means the node's task was
// drained without executing (valueAt reports the skip).
const (
	nodeNotRun uint8 = iota
	nodeOK
	nodeFailed
)

// newFrame builds one execution frame: the only per-frame allocations
// of the serving path, amortized away by the pool.
func (cg *CompiledGraph) newFrame() *GraphExec {
	n := len(cg.nodes)
	e := &GraphExec{
		cg:      cg,
		req:     core.NewReq(),
		pending: make([]int32, n),
		bodies:  make([]func(*Ctx), n),
		offers:  make([]core.Offer, n),
		depm:    make([]map[string]any, n),
		vals:    make([]any, n),
		errs:    make([]error, n),
		state:   make([]uint8, n),
	}
	for i := range cg.nodes {
		cn := &cg.nodes[i]
		e.depm[i] = make(map[string]any, len(cn.deps))
		// The body of a spawned node: the node, then whatever it readies.
		// A drained task never runs its body, so its successors' counters
		// stay untouched and the nodes report the skip.
		e.bodies[i] = func(c *Ctx) {
			e.runNode(c, i)
			e.advance(c, cn.succs, cn.pri, cn.dl)
		}
		e.offers[i] = core.NewOffer(e.bodies[i], i)
	}
	// The root task is level 0 and carries no deadline.
	e.root = func(c *Ctx) {
		e.advance(c, cg.roots, 0, 0)
		c.Taskwait()
	}
	return e
}

// advance is what follows a finished node of level pri and deadline
// offset dl (or the start of the request's root task): it lowers the
// join counter of each of succs, keeps the first node this readies and
// spawns every further one at once — the kept node may be the head of a
// long stretch, and a sibling held back for it would wait that stretch
// out unseen by any worker. The kept node then runs right here, as a
// call inside the running task and in a loop (a chain does not grow the
// stack), when it needs no scheduling decision: its level and deadline
// offset, fixed at Compile, are the finished node's — so Ctx.Priority
// and Ctx.Deadline read in its body what they would in a task of its
// own — and core.ContinueNode finds the scope healthy and nothing of a
// higher level queued. Otherwise it is spawned too, and the scheduler
// orders it, or drains it.
func (e *GraphExec) advance(c *Ctx, succs []int32, pri int, dl time.Duration) {
	for {
		next := -1
		for _, s := range succs {
			if atomic.AddInt32(&e.pending[s], -1) != 0 {
				continue
			}
			if next < 0 {
				next = int(s)
			} else {
				e.spawn(c, int(s))
			}
		}
		if next < 0 {
			return
		}
		cn := &e.cg.nodes[next]
		if cn.pri != pri || cn.dl != dl || !core.ContinueNode(c, next) {
			e.spawn(c, next)
			return
		}
		e.runNode(c, next)
		succs = cn.succs
	}
}

// spawn offers node i to the workers. On a template without
// attributes it hands over the frame's offer record (core.OfferNode):
// on an inline-serving slot the node waits in the slot's hand-off cells
// and becomes a task only if a thief takes it, while the submitter,
// waiting in the request's root, takes it back as a call; elsewhere it
// is spawned. A spawned task inherits the spawning task's level and
// deadline, so on a template with any elevated or deadlined node every
// node is spawned, and its task states both: its level, and its
// deadline — request start plus offset — or 0, which clears an
// inherited one.
func (e *GraphExec) spawn(c *Ctx, i int) {
	if !e.cg.attrs {
		core.OfferNode(c, &e.offers[i])
		return
	}
	cn := &e.cg.nodes[i]
	var dl int64
	if cn.dl != 0 {
		dl = e.start + cn.dl.Nanoseconds()
	}
	c.Spawn(e.bodies[i], WithPriority(cn.pri), WithDeadlineAt(dl))
}

// begin readies a pooled frame for the next request, stamping its start
// on templates with a deadlined node.
func (e *GraphExec) begin() {
	// vals, errs and err are clear already: by newFrame, or by the
	// Release every pooled frame came back through.
	clear(e.state)
	// Plain stores: the frame is unpublished until SubmitReq hands it
	// to the workers, which then lower the counters atomically.
	for i := range e.pending {
		e.pending[i] = int32(max(1, len(e.cg.nodes[i].deps)))
	}
	if e.cg.hasDL {
		e.start = core.NowNS()
	}
}

// runNode is the per-request body of node i, mirroring the interpreted
// path's semantics: short-circuit on a failed dependency (recorded
// locally only — the originating error already reached the scope),
// contain panics, route failures into the scope via Ctx.Fail.
func (e *GraphExec) runNode(c *Ctx, i int) {
	cg := e.cg
	cn := &cg.nodes[i]
	for _, d := range cn.deps {
		if de := e.errs[d]; de != nil {
			e.errs[i] = fmt.Errorf("repro: dependency %q of task %q: %w",
				cg.nodes[d].name, cn.name, de)
			e.state[i] = nodeFailed
			return
		}
	}
	if cn.pure {
		if m := cg.memo[i].Load(); m != nil && m.ver == cg.memoVer.Load() {
			e.vals[i] = m.val
			e.state[i] = nodeOK
			if cg.statsOn {
				cg.observe(c, i, 0, nil, true)
			}
			return
		}
	}
	m := e.depm[i]
	for _, d := range cn.deps {
		m[cg.nodes[d].name] = e.vals[d]
	}
	var t0 time.Time
	if cg.statsOn {
		t0 = time.Now()
	}
	v, err := runProtected(c, cn.fn, m)
	if cg.statsOn {
		cg.observe(c, i, time.Since(t0), err, false)
	}
	if err != nil {
		e.errs[i] = fmt.Errorf("repro: graph task %q: %w", cn.name, err)
		e.state[i] = nodeFailed
		c.Fail(e.errs[i])
		return
	}
	e.vals[i] = v
	e.state[i] = nodeOK
	if cn.pure {
		// Racing requests may both compute (the fn is pure, so both
		// values agree); the version loaded before the store keeps an
		// Invalidate racing with the computation conservative — a stale
		// version just forces the next request to recompute.
		cg.memo[i].Store(&memoEntry{ver: cg.memoVer.Load(), val: v})
	}
}

// runProtected runs fn with the interpreted path's panic containment,
// so a panicking node fails its request instead of the worker.
func runProtected(c *Ctx, fn GraphFunc, deps map[string]any) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &core.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(c, deps)
}

// observe records one node sample: the per-node histogram, then the
// hook (on the executing worker — keep it cheap and concurrency-safe).
func (cg *CompiledGraph) observe(c *Ctx, i int, d time.Duration, err error, memoized bool) {
	cg.hists[i].Record(c.Worker(), d.Nanoseconds())
	if cg.stats != nil {
		cg.stats(NodeStat{
			Name:     cg.nodes[i].name,
			Index:    i,
			Worker:   c.Worker(),
			Elapsed:  d,
			Err:      err,
			Memoized: memoized,
		})
	}
}

// Err returns the request's aggregate error, as returned by Do.
func (e *GraphExec) Err() error { return e.err }

// Value returns task name's result from this execution: its value, or
// the error that failed or skipped it (semantics identical to the
// Result map of Graph.Run).
func (e *GraphExec) Value(name string) (any, error) {
	i, ok := e.cg.index[name]
	if !ok {
		return nil, fmt.Errorf("repro: graph has no task %q", name)
	}
	return e.valueAt(i)
}

// ValueAt is Value by topological node index (NodeIndex): the
// string-free variant for hot serving loops.
func (e *GraphExec) ValueAt(i int) (any, error) {
	if i < 0 || i >= len(e.vals) {
		return nil, fmt.Errorf("repro: graph node index %d out of range", i)
	}
	return e.valueAt(i)
}

func (e *GraphExec) valueAt(i int) (any, error) {
	switch e.state[i] {
	case nodeOK:
		return e.vals[i], nil
	case nodeFailed:
		return nil, e.errs[i]
	}
	// Never ran: the node's task was drained (cancellation, deadline,
	// or a FailFast failure elsewhere), or the root itself was skipped.
	// The aggregate carries the cause.
	if e.err == nil {
		return nil, core.ErrTaskSkipped
	}
	return nil, fmt.Errorf("%w: %w", core.ErrTaskSkipped, e.err)
}

// Release returns the frame to the template's pool, dropping the
// result and error slots' references. The maps handed to node bodies
// are not cleared — that would be a map write per edge per request — so
// a pooled frame keeps each dependency value alive until the next Do on
// it overwrites the entry. The execution's values and errors are
// invalid after Release; no method of e may be called again until a
// future Do hands the frame out.
func (e *GraphExec) Release() {
	clear(e.vals)
	clear(e.errs)
	e.err = nil
	e.cg.frames.Put(e)
}
