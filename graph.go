package repro

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// GraphFunc is the body of one named graph task. It receives the
// results of the tasks it depends on, keyed by name, and returns its
// own result. A dependency that failed never reaches its dependents'
// GraphFunc: the dependent is skipped with an error wrapping the
// dependency's.
type GraphFunc func(c *Ctx, deps map[string]any) (any, error)

// Result is the outcome of one graph task: its value, or the error
// that failed or skipped it.
type Result struct {
	Value any
	Err   error
}

// Value returns the typed result of task name from a Graph.Run result
// map: res["name"].Value asserted to T, or the task's error.
func Value[T any](res map[string]Result, name string) (T, error) {
	var zero T
	r, ok := res[name]
	if !ok {
		return zero, fmt.Errorf("repro: graph has no task %q", name)
	}
	if r.Err != nil {
		return zero, r.Err
	}
	v, ok := r.Value.(T)
	if !ok && r.Value != nil {
		return zero, fmt.Errorf("repro: task %q result is %T, not %T", name, r.Value, zero)
	}
	return v, nil
}

// Graph is a declarative, named-task layer over the runtime: tasks are
// added with explicit dependency names (symphony-style) rather than
// data accesses, and Run executes the whole DAG with the usual
// result/error/cancellation semantics. Run compiles the graph into a
// template on first use (see Compile) and caches it: each node holds a
// join counter of its unfinished dependencies, and the node whose
// finish drops a counter to zero readies that dependent.
//
// A Graph is a builder: it is not safe for concurrent mutation, but
// once built it may be Run repeatedly and concurrently (Run stamps
// per-request state from the cached template; serving loops should
// hold the template from Compile and call Do, which also skips Run's
// result map).
type Graph struct {
	nodes  []*gnode
	byName map[string]*gnode
	err    error

	// compiled caches the option-free compiled template so repeated
	// Runs reuse one template (and its frame pool); any builder
	// mutation invalidates it. It is atomic because concurrent first
	// Runs may both compile: each stores its template, the last wins.
	compiled atomic.Pointer[CompiledGraph]
}

type gnode struct {
	name string
	deps []string
	fn   GraphFunc
	pri  int
	dl   time.Duration
	pure bool

	// val/err are written once by the node's task body (or its skip
	// path) and read by dependents after the dependency edge's
	// happens-before, and by runInterpreted after full completion.
	val any
	err error

	fut *Future[any]
}

// NewGraph returns an empty task graph.
func NewGraph() *Graph {
	return &Graph{byName: make(map[string]*gnode)}
}

// Add declares task name depending on the named tasks in deps. Tasks
// may be added in any order; dependencies are resolved at Run. Add
// returns the graph for chaining; construction errors (duplicate
// names) are reported by Run.
func (g *Graph) Add(name string, deps []string, fn GraphFunc) *Graph {
	if g.err != nil {
		return g
	}
	if _, dup := g.byName[name]; dup {
		g.err = fmt.Errorf("repro: duplicate graph task %q", name)
		return g
	}
	n := &gnode{name: name, deps: deps, fn: fn}
	g.byName[name] = n
	g.nodes = append(g.nodes, n)
	g.compiled.Store(nil)
	return g
}

// SetPriority assigns a scheduling priority level to an already-added
// task (clamped to [0, MaxPriority] at Run). The node's task — and,
// by inheritance, anything it spawns — runs at that level once its
// dependencies are satisfied; the dependency edges themselves are
// unaffected. Referencing an unknown task is a construction error
// reported by Run.
func (g *Graph) SetPriority(name string, pri int) *Graph {
	if g.err != nil {
		return g
	}
	n, ok := g.byName[name]
	if !ok {
		g.err = fmt.Errorf("repro: SetPriority on unknown graph task %q", name)
		return g
	}
	n.pri = pri
	g.compiled.Store(nil)
	return g
}

// SetDeadline assigns a scheduling deadline, relative to the start of
// each Run/Do request, to an already-added task: when the request
// begins, the node's task is stamped with an absolute deadline of
// "request start + d" (WithDeadline semantics — advisory EDF ordering
// within the top priority level on WithEDF runtimes, nothing is
// cancelled when it passes; combine with SetPriority(name,
// MaxPriority) to place the node in the deadline-ordered class).
// Children spawned by the node inherit the deadline. d <= 0 clears it.
// Referencing an unknown task is a construction error reported by Run.
func (g *Graph) SetDeadline(name string, d time.Duration) *Graph {
	if g.err != nil {
		return g
	}
	n, ok := g.byName[name]
	if !ok {
		g.err = fmt.Errorf("repro: SetDeadline on unknown graph task %q", name)
		return g
	}
	if d < 0 {
		d = 0
	}
	n.dl = d
	g.compiled.Store(nil)
	return g
}

// MarkPure declares task name pure: its result depends only on its
// dependencies' results, with no per-request side effects or inputs.
// A compiled template memoizes a node's result across requests when
// the node and every task it transitively depends on are pure (an
// impure dependency makes the inputs per-request, so the node
// recomputes); CompiledGraph.Invalidate drops all memoized results.
// The interpreted path ignores purity. Referencing an unknown task is
// a construction error reported by Run/Compile.
func (g *Graph) MarkPure(name string) *Graph {
	if g.err != nil {
		return g
	}
	n, ok := g.byName[name]
	if !ok {
		g.err = fmt.Errorf("repro: MarkPure on unknown graph task %q", name)
		return g
	}
	n.pure = true
	g.compiled.Store(nil)
	return g
}

// validate checks referential integrity and acyclicity, returning the
// nodes in a topological order (dependencies before dependents).
func (g *Graph) validate() ([]*gnode, error) {
	if g.err != nil {
		return nil, g.err
	}
	for _, n := range g.nodes {
		for _, d := range n.deps {
			if d == n.name {
				return nil, fmt.Errorf("repro: graph task %q depends on itself", n.name)
			}
			if _, ok := g.byName[d]; !ok {
				return nil, fmt.Errorf("repro: graph task %q depends on unknown task %q", n.name, d)
			}
		}
	}
	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[string]int, len(g.nodes))
	order := make([]*gnode, 0, len(g.nodes))
	var visit func(n *gnode, path []string) error
	visit = func(n *gnode, path []string) error {
		switch state[n.name] {
		case visiting:
			return fmt.Errorf("repro: graph cycle: %v", append(path, n.name))
		case done:
			return nil
		}
		state[n.name] = visiting
		for _, d := range n.deps {
			if err := visit(g.byName[d], append(path, n.name)); err != nil {
				return err
			}
		}
		state[n.name] = done
		order = append(order, n)
		return nil
	}
	for _, n := range g.nodes {
		if err := visit(n, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Run executes the graph on rt and blocks until every task has
// completed, failed, or been drained by cancellation. It returns the
// per-task results keyed by name, plus the submission's aggregate
// error (nil when everything succeeded). ctx cancellation and the
// runtime's ErrorPolicy behave exactly as in RunCtx: under FailFast
// the first failure skips every not-yet-started task, with skipped
// dependents reporting an error that wraps their dependency's.
//
// Run routes through the graph's compiled template (cached across
// calls, rebuilt after any builder mutation): the per-call cost is one
// pooled execution frame plus the result map the signature promises,
// not the name resolution, cycle check and per-node closures of the
// interpreted path. Serving loops should hold the template directly —
// Compile once, Do per request — to also skip the map.
func (g *Graph) Run(ctx context.Context, rt *Runtime) (map[string]Result, error) {
	cg, err := g.Compile(rt)
	if err != nil {
		return nil, err
	}
	e, runErr := cg.Do(ctx)
	res := make(map[string]Result, len(cg.nodes))
	for i := range cg.nodes {
		v, verr := e.valueAt(i)
		res[cg.nodes[i].name] = Result{Value: v, Err: verr}
	}
	e.Release()
	return res, runErr
}

// runInterpreted is the seed interpreted execution path: it re-runs
// name resolution and the cycle check, then registers one closure-built
// task per node, every call. It is retained as the reference
// implementation the compiled path is differentially tested against
// (export_test.go). Unlike Run it must not execute the same Graph
// concurrently with itself — per-call node state lives on the builder.
func (g *Graph) runInterpreted(ctx context.Context, rt *Runtime) (map[string]Result, error) {
	order, err := g.validate()
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	for _, n := range order {
		n.val, n.err, n.fut = nil, nil, nil
	}
	// One sentinel byte per task carries the name-level ordering
	// through the address-based dependency system.
	sentinels := make([]byte, len(order))
	index := make(map[string]int, len(order))
	for i, n := range order {
		index[n.name] = i
	}

	runErr := rt.RunCtx(ctx, func(c *Ctx) {
		// Registration in topological order guarantees each sentinel's
		// out() precedes its dependents' in() in the chain.
		for i, n := range order {
			accs := make([]AccessSpec, 0, len(n.deps)+2)
			for _, d := range n.deps {
				accs = append(accs, In(&sentinels[index[d]]))
			}
			accs = append(accs, Out(&sentinels[i]))
			if n.pri != 0 {
				accs = append(accs, WithPriority(n.pri))
			}
			if n.dl != 0 {
				accs = append(accs, WithDeadline(n.dl))
			}
			n.fut = Go(c, n.task(g), accs...)
		}
		c.Taskwait()
	})

	res := make(map[string]Result, len(order))
	for _, n := range order {
		var v any
		var err error
		switch {
		case n.fut == nil:
			// The spawning root was itself drained (context already
			// cancelled): no task was ever created for this node.
			err = fmt.Errorf("%w: %w", core.ErrTaskSkipped, runErr)
		case n.err != nil:
			// Dependency-failure skips are recorded on the node, not
			// returned to the scope (the originating failure already
			// was).
			v, err = n.val, n.err
		default:
			// All futures are resolved here: RunCtx returns only after
			// the whole submission (including drained tasks) completed.
			v, err = n.fut.Wait(nil)
		}
		res[n.name] = Result{Value: v, Err: err}
	}
	return res, runErr
}

// task builds the runtime body of one graph node: collect dependency
// results, short-circuit on a failed dependency, run the GraphFunc with
// its own panic containment so dependents observe the failure through
// the node state as well as the scope.
func (n *gnode) task(g *Graph) func(*Ctx) (any, error) {
	return func(c *Ctx) (any, error) {
		depvals := make(map[string]any, len(n.deps))
		for _, d := range n.deps {
			dn := g.byName[d]
			if dn.err != nil {
				// The dependency failed (or was itself skipped): skip
				// this task. Recorded locally only — returning it would
				// multiply the originating error in the scope's join.
				n.err = fmt.Errorf("repro: dependency %q of task %q: %w", d, n.name, dn.err)
				return nil, nil
			}
			depvals[d] = dn.val
		}
		v, err := func() (v any, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = &core.PanicError{Value: r, Stack: debug.Stack()}
				}
			}()
			return n.fn(c, depvals)
		}()
		n.val = v
		if err != nil {
			n.err = fmt.Errorf("repro: graph task %q: %w", n.name, err)
			return nil, n.err
		}
		return v, nil
	}
}
