package workloads

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/counter"
)

// Echo is the RPC-proxy scenario the external-events subsystem exists
// for: every request is a three-task chain — a *frontend* task staging
// the request payload, a *backend* task that must wait out a simulated
// backend round trip before producing the response, and a *reply* task
// folding the response into a shared per-key accumulator (so requests
// also contend on root-level dependency chains, like Server). The
// backend wait is the experimental axis:
//
//   - events mode (the default): the backend body registers the
//     response arrival on the runtime's timer wheel through
//     Ctx.AfterFunc and returns immediately. The worker goes back to
//     the scheduler; the request graph parks, one of thousands in
//     flight, and releases when the "response" fires.
//   - blocking mode (the baseline): the backend body time.Sleeps the
//     round trip, holding its worker. In-flight requests are then
//     capped by the worker count, the thread-per-request model the
//     events API replaces.
//
// Traffic is deterministic per request index and integer-valued, so
// Verify replays it serially and demands bit-exact key totals — a
// premature release (reply reading resp before the backend completion
// wrote it) is a verification failure, not just a latency artifact.
type Echo struct {
	nkeys, clients, requests int
	window                   int
	backendLat               time.Duration
	blocking                 bool

	keys  []float64
	stage []float64 // one cell per request: frontend → backend
	resp  []float64 // one cell per request: backend → reply

	// arrivals, when set, paces each client's issue loop on the shared
	// open-loop schedule (indexed by global request number); latency is
	// then measured from the scheduled instant. Nil is closed-loop
	// windowed issue, latency from issue time.
	arrivals Arrivals

	// Latency records per-request server-side latency (t0 to reply-task
	// completion) in nanoseconds, recorded by the reply body into the
	// executing worker's shard.
	Latency *counter.Histogram
	// Elapsed is the wall time of the last Run; with Little's law,
	// requests/Elapsed × backendLat is the mean number of request
	// graphs simultaneously waiting on the backend.
	Elapsed time.Duration
}

// NewEcho builds an echo scenario: `requests` three-task request
// chains over nkeys shared accumulators, issued by `clients` concurrent
// goroutines each keeping up to `window` requests in flight, with a
// simulated backend round trip of backendLat. blocking selects the
// worker-holding baseline; false is events mode.
func NewEcho(nkeys, clients, requests, window int, backendLat time.Duration, blocking bool) *Echo {
	if nkeys < 1 {
		nkeys = 1
	}
	if clients < 1 {
		clients = 1
	}
	if clients > 64 {
		clients = 64
	}
	if requests < clients {
		requests = clients
	}
	if window < 1 {
		window = 1
	}
	if backendLat <= 0 {
		backendLat = time.Millisecond
	}
	e := &Echo{
		nkeys:      nkeys,
		clients:    clients,
		requests:   requests,
		window:     window,
		backendLat: backendLat,
		blocking:   blocking,
		keys:       make([]float64, nkeys),
		stage:      make([]float64, requests),
		resp:       make([]float64, requests),
		Latency:    counter.NewHistogram(1),
	}
	e.Reset()
	return e
}

// SetArrivals switches the clients to the given open-loop schedule,
// indexed by global request number (nil restores closed-loop issue).
// The schedule should hold one entry per request; a shorter one issues
// the surplus immediately at its last instant.
func (e *Echo) SetArrivals(a Arrivals) { e.arrivals = a }

// Name implements Workload.
func (e *Echo) Name() string { return "echo" }

// Reset implements Workload. Integer-valued keys keep sums exact.
func (e *Echo) Reset() {
	for i := range e.keys {
		e.keys[i] = float64(1 + i%9)
	}
	clear(e.stage)
	clear(e.resp)
	e.Latency.Reset()
	e.Elapsed = 0
}

// Deterministic per-request traffic: the Fibonacci-hashed key and
// integer payload match Server's scheme, and the backend transform
// (double the payload) stays exactly representable.
func (e *Echo) reqKey(r int) int { return int(uint64(r) * 2654435761 % uint64(e.nkeys)) }

func (e *Echo) reqDelta(r int) float64 { return float64(1 + (r*7+3)%11) }

// echoInflight tracks one submitted request chain.
type echoInflight struct{ front, back, reply *core.Handle }

func (f *echoInflight) await(errp *error) {
	if f.reply == nil {
		return
	}
	for _, h := range [...]*core.Handle{f.reply, f.back, f.front} {
		if _, err := h.Wait(nil); err != nil && *errp == nil {
			*errp = err
		}
	}
	f.front, f.back, f.reply = nil, nil, nil
}

// submitRequest issues one frontend→backend→reply chain for request r,
// with latency measured from t0.
func (e *Echo) submitRequest(rt *core.Runtime, r int, t0 time.Time) echoInflight {
	stage, resp := &e.stage[r], &e.resp[r]
	key := &e.keys[e.reqKey(r)]
	delta := e.reqDelta(r)
	lat := e.backendLat
	hist := e.Latency
	var f echoInflight
	f.front = rt.Submit(func(*core.Ctx) (any, error) {
		*stage = delta
		return nil, nil
	}, core.Out(stage))
	if e.blocking {
		f.back = rt.Submit(func(*core.Ctx) (any, error) {
			time.Sleep(lat) // the worker-holding baseline
			*resp = *stage * 2
			return nil, nil
		}, core.In(stage), core.Out(resp))
	} else {
		f.back = rt.Submit(func(c *core.Ctx) (any, error) {
			v := *stage
			// The "response arrives": written on the wheel goroutine,
			// ordered before the reply task by the event completing
			// only after fn runs.
			c.AfterFunc(lat, func() { *resp = v * 2 })
			return nil, nil // worker freed; the graph parks here
		}, core.In(stage), core.Out(resp))
	}
	f.reply = rt.Submit(func(c *core.Ctx) (any, error) {
		*key += *resp
		hist.Record(c.Worker(), time.Since(t0).Nanoseconds())
		return nil, nil
	}, core.In(resp), core.InOut(key))
	return f
}

// Run implements Workload: clients issue their request shares
// concurrently, each through a bounded in-flight window (closed loop)
// or on the open-loop arrival schedule, and every handle is awaited
// before returning.
func (e *Echo) Run(rt *core.Runtime) error {
	// Sized by the full thread-index space: a reply body can execute on
	// a non-worker slot when an inline-serving submitter helps it.
	if w := rt.Slots(); e.Latency.Recorders() != w {
		e.Latency = counter.NewHistogram(w)
	}
	start := time.Now()
	errs := make([]error, e.clients)
	var wg sync.WaitGroup
	for g := 0; g < e.clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			win := make([]echoInflight, e.window)
			n := 0
			for r := g; r < e.requests; r += e.clients {
				t0 := time.Now()
				if e.arrivals != nil {
					i := r
					if i >= len(e.arrivals) {
						i = len(e.arrivals) - 1
					}
					t0 = e.arrivals.Pace(start, i)
				}
				i := n % e.window
				win[i].await(&errs[g])
				win[i] = e.submitRequest(rt, r, t0)
				n++
			}
			for i := range win {
				win[i].await(&errs[g])
			}
		}(g)
	}
	wg.Wait()
	e.Elapsed = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunSerial implements Workload: the same traffic in request order on
// one goroutine.
func (e *Echo) RunSerial() {
	for r := 0; r < e.requests; r++ {
		e.stage[r] = e.reqDelta(r)
		e.resp[r] = e.stage[r] * 2
		e.keys[e.reqKey(r)] += e.resp[r]
	}
}

// Verify implements Workload: bit-exact per-key totals plus exact
// per-request staging and response cells — a reply that ran before its
// backend completion wrote the response shows up here.
func (e *Echo) Verify() error {
	want := make([]float64, e.nkeys)
	for k := range want {
		want[k] = float64(1 + k%9)
	}
	for r := 0; r < e.requests; r++ {
		if e.stage[r] != e.reqDelta(r) {
			return fmt.Errorf("echo: request %d staged %v, want %v", r, e.stage[r], e.reqDelta(r))
		}
		if e.resp[r] != e.reqDelta(r)*2 {
			return fmt.Errorf("echo: request %d response %v, want %v", r, e.resp[r], e.reqDelta(r)*2)
		}
		want[e.reqKey(r)] += e.resp[r]
	}
	for k := 0; k < e.nkeys; k++ {
		if e.keys[k] != want[k] {
			return fmt.Errorf("echo: key %d = %v, want %v", k, e.keys[k], want[k])
		}
	}
	return nil
}

// TotalWork implements Workload: three element updates per request.
func (e *Echo) TotalWork() float64 { return float64(3 * e.requests) }

// Tasks implements Workload: three tasks per request.
func (e *Echo) Tasks() int { return 3 * e.requests }

var _ Workload = (*Echo)(nil)
