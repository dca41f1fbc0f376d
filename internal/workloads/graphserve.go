package workloads

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/counter"
)

// GraphServe is the compiled-template serving scenario: one symphony
// fan-in DAG is compiled once (repro.Graph.Compile) and then
// instantiated per request by `clients` concurrent goroutines through
// CompiledGraph.Do — the serving fast path the compilation exists for.
//
// Every request draws a unique *ticket* from a shared atomic counter in
// the template's source node, and every downstream node is a fixed
// integer transform of its dependencies, so the sink value is an exact
// function of the ticket. Each client reads ticket and sink from the
// same GraphExec and files the sink under the ticket; Verify then
// demands that every ticket 1..requests was observed exactly once with
// exactly the expected sink value. Any cross-frame contamination —
// request A's node writing into request B's pooled frame, a stale
// result slot surviving frame recycling, a dependency edge firing
// early — shows up as a wrong or duplicated ticket, not as a latency
// artifact. The sink node carries an explicit priority so the storm
// also exercises the compiled priority-spec path.
type GraphServe struct {
	clients, requests int

	graph *repro.Graph
	tmpl  *repro.CompiledGraph
	rt    *core.Runtime // runtime tmpl was compiled against
	tick  int           // node index of "ticket" in tmpl
	sink  int           // node index of "render" in tmpl

	// seq issues tickets; node bodies share it across every in-flight
	// frame, which is exactly the aliasing the frames must not leak.
	seq atomic.Int64

	// rec[t-1] holds the sink value observed for ticket t, installed
	// with a compare-and-swap from zero so a duplicated ticket is caught
	// at delivery, not folded away.
	rec []int64

	// Latency records per-request client-side latency (issue to Do
	// return) in nanoseconds, one shard per client.
	Latency *counter.Histogram
	// Elapsed is the wall time of the last Run.
	Elapsed time.Duration
}

// graphServeSink is the exact sink value of one served request:
// render = quote*7 + ticket, quote = price*2 - promo,
// price = auth + inventory*2, promo = ticket*11 + 7,
// auth = ticket*3 + 1, inventory = ticket*5 + 2.
func graphServeSink(ticket int64) int64 { return 106*ticket + 21 }

// NewGraphServe builds a serving scenario: `requests` instantiations of
// the compiled template, issued by `clients` concurrent goroutines.
func NewGraphServe(clients, requests int) *GraphServe {
	if clients < 1 {
		clients = 1
	}
	if clients > 64 {
		clients = 64
	}
	if requests < clients {
		requests = clients
	}
	gs := &GraphServe{
		clients:  clients,
		requests: requests,
		rec:      make([]int64, requests),
		Latency:  counter.NewHistogram(clients),
	}
	seq := &gs.seq
	gs.graph = repro.NewGraph().
		Add("ticket", nil, func(*repro.Ctx, map[string]any) (any, error) {
			return seq.Add(1), nil
		}).
		Add("auth", []string{"ticket"}, func(_ *repro.Ctx, d map[string]any) (any, error) {
			return d["ticket"].(int64)*3 + 1, nil
		}).
		Add("inventory", []string{"ticket"}, func(_ *repro.Ctx, d map[string]any) (any, error) {
			return d["ticket"].(int64)*5 + 2, nil
		}).
		Add("promo", []string{"ticket"}, func(_ *repro.Ctx, d map[string]any) (any, error) {
			return d["ticket"].(int64)*11 + 7, nil
		}).
		Add("price", []string{"auth", "inventory"}, func(_ *repro.Ctx, d map[string]any) (any, error) {
			return d["auth"].(int64) + d["inventory"].(int64)*2, nil
		}).
		Add("quote", []string{"price", "promo"}, func(_ *repro.Ctx, d map[string]any) (any, error) {
			return d["price"].(int64)*2 - d["promo"].(int64), nil
		}).
		Add("render", []string{"quote", "ticket"}, func(_ *repro.Ctx, d map[string]any) (any, error) {
			return d["quote"].(int64)*7 + d["ticket"].(int64), nil
		}).
		SetPriority("render", 1)
	gs.Reset()
	return gs
}

// Name implements Workload.
func (gs *GraphServe) Name() string { return "graphserve" }

// Reset implements Workload.
func (gs *GraphServe) Reset() {
	gs.seq.Store(0)
	clear(gs.rec)
	gs.Latency.Reset()
	gs.Elapsed = 0
}

// template returns the compiled template for rt, compiling on first use
// (or when Run moves to a different runtime).
func (gs *GraphServe) template(rt *core.Runtime) (*repro.CompiledGraph, error) {
	if gs.tmpl != nil && gs.rt == rt {
		return gs.tmpl, nil
	}
	cg, err := gs.graph.Compile(rt)
	if err != nil {
		return nil, err
	}
	gs.tick, _ = cg.NodeIndex("ticket")
	gs.sink, _ = cg.NodeIndex("render")
	gs.tmpl, gs.rt = cg, rt
	return cg, nil
}

// serveOne instantiates the template once and files the observed sink
// value under the request's ticket.
func (gs *GraphServe) serveOne(ctx context.Context, cg *repro.CompiledGraph) error {
	ex, err := cg.Do(ctx)
	if err != nil {
		return err
	}
	defer ex.Release()
	tv, err := ex.ValueAt(gs.tick)
	if err != nil {
		return err
	}
	sv, err := ex.ValueAt(gs.sink)
	if err != nil {
		return err
	}
	t := tv.(int64)
	if t < 1 || t > int64(len(gs.rec)) {
		return fmt.Errorf("graphserve: ticket %d out of range 1..%d", t, len(gs.rec))
	}
	if !atomic.CompareAndSwapInt64(&gs.rec[t-1], 0, sv.(int64)) {
		return fmt.Errorf("graphserve: ticket %d delivered twice", t)
	}
	return nil
}

// Run implements Workload: clients serve their request shares
// concurrently through the shared compiled template, closed-loop.
func (gs *GraphServe) Run(rt *core.Runtime) error {
	cg, err := gs.template(rt)
	if err != nil {
		return err
	}
	if gs.Latency.Recorders() != gs.clients {
		gs.Latency = counter.NewHistogram(gs.clients)
	}
	ctx := context.Background()
	start := time.Now()
	errs := make([]error, gs.clients)
	var wg sync.WaitGroup
	for g := 0; g < gs.clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := g; r < gs.requests; r += gs.clients {
				t0 := time.Now()
				if err := gs.serveOne(ctx, cg); err != nil {
					if errs[g] == nil {
						errs[g] = err
					}
					continue
				}
				gs.Latency.Record(g, time.Since(t0).Nanoseconds())
			}
		}(g)
	}
	wg.Wait()
	gs.Elapsed = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunSerial implements Workload: the same tickets in order on one
// goroutine, through the exact transform.
func (gs *GraphServe) RunSerial() {
	for t := int64(1); t <= int64(gs.requests); t++ {
		gs.rec[t-1] = graphServeSink(t)
	}
	gs.seq.Store(int64(gs.requests))
}

// Verify implements Workload: every ticket observed exactly once, every
// sink value exact.
func (gs *GraphServe) Verify() error {
	if got := gs.seq.Load(); got != int64(gs.requests) {
		return fmt.Errorf("graphserve: issued %d tickets, want %d", got, gs.requests)
	}
	for t := int64(1); t <= int64(gs.requests); t++ {
		if got, want := gs.rec[t-1], graphServeSink(t); got != want {
			return fmt.Errorf("graphserve: ticket %d sink = %d, want %d", t, got, want)
		}
	}
	return nil
}

// TotalWork implements Workload: seven node evaluations per request.
func (gs *GraphServe) TotalWork() float64 { return float64(7 * gs.requests) }

// Tasks implements Workload: seven node tasks plus the root per request.
func (gs *GraphServe) Tasks() int { return 8 * gs.requests }

var _ Workload = (*GraphServe)(nil)
