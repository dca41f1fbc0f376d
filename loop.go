package repro

import (
	"context"

	"repro/internal/deps"
)

// LoopOption tunes one work-sharing loop (ForEach, ForReduce,
// Graph.AddLoop).
type LoopOption func(*loopCfg)

type loopCfg struct {
	grain int
	accs  []AccessSpec
}

// WithGrain sets the loop's chunk size: workers claim iterations from
// the loop's remaining span in multiples of the grain, and cancellation
// is observed between chunks. n <= 0 (the default) selects an adaptive
// grain of roughly eight chunks per worker.
func WithGrain(n int) LoopOption {
	return func(c *loopCfg) { c.grain = n }
}

// WithAccesses declares data accesses on the loop task, ordering the
// whole loop — one logical task, however many workers execute it —
// against other tasks and loops through the usual dependency chains.
// A WithPriority clause in the list sets the loop's scheduling level;
// every chunk, wherever it is stolen to, runs at that level.
func WithAccesses(accs ...AccessSpec) LoopOption {
	return func(c *loopCfg) { c.accs = append(c.accs, accs...) }
}

func buildLoopCfg(opts []LoopOption) loopCfg {
	var c loopCfg
	for _, o := range opts {
		o(&c)
	}
	return c
}

// ForEach executes body over every chunk of [lo, hi) as one
// work-sharing loop task (OmpSs-2 taskloop/taskfor): the loop's
// iteration span is claimed in chunks by however many workers are idle,
// its dependencies (WithAccesses) are declared and released once for
// the whole range, and ForEach returns only when every chunk has
// completed. body may run concurrently on disjoint chunks; it must not
// share mutable state across iterations without its own
// synchronization.
func ForEach(rt *Runtime, lo, hi int, body func(c *Ctx, lo, hi int), opts ...LoopOption) error {
	return ForEachCtx(context.Background(), rt, lo, hi, body, opts...)
}

// ForEachCtx is ForEach honoring a caller context: when ctx fires
// mid-loop, chunks that have not started are skipped (the loop still
// completes and unwinds normally) and the returned error matches both
// ErrTaskSkipped and the cancellation cause.
func ForEachCtx(ctx context.Context, rt *Runtime, lo, hi int, body func(c *Ctx, lo, hi int), opts ...LoopOption) error {
	cfg := buildLoopCfg(opts)
	return rt.SubmitLoop(ctx, lo, hi, cfg.grain, body, cfg.accs...).Wait(nil)
}

// ForReduce executes body over every chunk of [lo, hi) and reduces the
// per-chunk partials into a single T. Each thread accumulates into a
// private, cache-line-padded slot (initialized to identity, which must
// be the identity element of combine: 0 for sums, +Inf for mins, ...);
// the partials are combined exactly once, after the last chunk
// completed — no atomic traffic per iteration or per chunk.
//
// For float64 reductions that other tasks depend on through the
// dependency system, declare a reduction access instead (RedSum et al.
// with Ctx.ReductionBuffer inside the body); ForReduce is the typed,
// self-contained variant for results the caller consumes directly.
func ForReduce[T any](rt *Runtime, lo, hi int, identity T, combine func(T, T) T, body func(c *Ctx, lo, hi int, acc *T), opts ...LoopOption) (T, error) {
	return ForReduceCtx(context.Background(), rt, lo, hi, identity, combine, body, opts...)
}

// ForReduceCtx is ForReduce honoring a caller context. On error
// (including cancellation skips, matching ErrTaskSkipped) the identity
// value is returned.
func ForReduceCtx[T any](ctx context.Context, rt *Runtime, lo, hi int, identity T, combine func(T, T) T, body func(c *Ctx, lo, hi int, acc *T), opts ...LoopOption) (T, error) {
	cfg := buildLoopCfg(opts)
	priv := deps.NewPrivate(rt.Slots(), identity)
	h := rt.SubmitLoop(ctx, lo, hi, cfg.grain, func(c *Ctx, lo, hi int) {
		body(c, lo, hi, priv.Slot(c.Worker()))
	}, cfg.accs...)
	if err := h.Wait(nil); err != nil {
		return identity, err
	}
	return priv.Combine(identity, combine), nil
}

// AddLoop declares graph task name as a work-sharing loop over [lo, hi)
// depending on the named tasks in depNames: the loop starts once every
// dependency succeeded (a failed dependency skips it like any other
// node) and dependents start only after its last chunk completed. The
// node's result value is nil.
func (g *Graph) AddLoop(name string, depNames []string, lo, hi int, body func(c *Ctx, lo, hi int), opts ...LoopOption) *Graph {
	cfg := buildLoopCfg(opts)
	return g.Add(name, depNames, func(c *Ctx, _ map[string]any) (any, error) {
		c.Loop(lo, hi, cfg.grain, body, cfg.accs...)
		c.Taskwait()
		return nil, nil
	})
}
