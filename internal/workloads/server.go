package workloads

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/counter"
)

// Server is the sustained-traffic scenario the sharded root-submission
// path exists for: many goroutines concurrently submit small dependent
// task graphs (requests) against an overlapping key space, through the
// runtime's public Submit API rather than one nesting task. Each
// request is a two-task chain — a compute task producing a delta into a
// request-private staging cell, and an apply task folding the staged
// delta into one of the shared keys — so every request exercises a
// cross-root dependency (staging cell) plus contended root chains (the
// keys).
//
// Deltas are small integers, so float64 key totals are exact and the
// parallel result must match the serial reference bit-for-bit no matter
// how the concurrent submissions interleave: per-key addition is
// commutative across requests, while the in/out chain inside each
// request checks that root-level dependencies order its two tasks.
type Server struct {
	nkeys, submitters, requests int

	keys    []float64
	staging []float64 // one cell per request
}

// NewServer builds a server scenario over nkeys keys, driven by
// `submitters` concurrent client goroutines issuing `requests` requests
// in total.
func NewServer(nkeys, submitters, requests int) *Server {
	if nkeys < 1 {
		nkeys = 1
	}
	if submitters < 1 {
		submitters = 1
	}
	if requests < submitters {
		requests = submitters
	}
	s := &Server{
		nkeys:      nkeys,
		submitters: submitters,
		requests:   requests,
		keys:       make([]float64, nkeys),
		staging:    make([]float64, requests),
	}
	s.Reset()
	return s
}

// Name implements Workload.
func (s *Server) Name() string { return "server" }

// Reset implements Workload. Integer-valued keys keep sums exact.
func (s *Server) Reset() {
	for i := range s.keys {
		s.keys[i] = float64(1 + i%9)
	}
	clear(s.staging)
}

// reqKey and reqDelta derive a request's target key and integer delta
// deterministically, so the serial reference replays the same traffic.
func (s *Server) reqKey(r int) int { return int(uint64(r) * 2654435761 % uint64(s.nkeys)) }

func (s *Server) reqDelta(r int) float64 { return float64(1 + (r*7+3)%11) }

// Run implements Workload: submitters goroutines issue their share of
// the requests concurrently, each request as two dependent root
// submissions, and every handle is awaited before returning.
func (s *Server) Run(rt *core.Runtime) error {
	var wg sync.WaitGroup
	errs := make([]error, s.submitters)
	for g := 0; g < s.submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			handles := make([]*core.Handle, 0, 2*(s.requests/s.submitters+1))
			for r := g; r < s.requests; r += s.submitters {
				r := r
				stage := &s.staging[r]
				key := &s.keys[s.reqKey(r)]
				handles = append(handles, rt.Submit(func(*core.Ctx) (any, error) {
					*stage = s.reqDelta(r)
					return nil, nil
				}, core.Out(stage)))
				handles = append(handles, rt.Submit(func(*core.Ctx) (any, error) {
					*key += *stage
					return nil, nil
				}, core.In(stage), core.InOut(key)))
			}
			for _, h := range handles {
				if _, err := h.Wait(nil); err != nil && errs[g] == nil {
					errs[g] = err
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunSerial implements Workload: the same traffic applied in request
// order on one goroutine.
func (s *Server) RunSerial() {
	for r := 0; r < s.requests; r++ {
		s.staging[r] = s.reqDelta(r)
		s.keys[s.reqKey(r)] += s.staging[r]
	}
}

// Verify implements Workload: every key must hold its initial value
// plus exactly the deltas of the requests that targeted it — additions
// of integer-valued float64s commute exactly, so any lost, duplicated
// or reordered-with-overlap update is a mismatch.
func (s *Server) Verify() error {
	for k := 0; k < s.nkeys; k++ {
		want := float64(1 + k%9)
		for r := 0; r < s.requests; r++ {
			if s.reqKey(r) == k {
				want += s.reqDelta(r)
			}
		}
		if s.keys[k] != want {
			return fmt.Errorf("server: key %d = %v, want %v", k, s.keys[k], want)
		}
	}
	for r := 0; r < s.requests; r++ {
		if s.staging[r] != s.reqDelta(r) {
			return fmt.Errorf("server: request %d staged %v, want %v", r, s.staging[r], s.reqDelta(r))
		}
	}
	return nil
}

// TotalWork implements Workload: two element updates per request.
func (s *Server) TotalWork() float64 { return float64(2 * s.requests) }

// Tasks implements Workload: two tasks per request.
func (s *Server) Tasks() int { return 2 * s.requests }

var _ Workload = (*Server)(nil)

// QoSServer is the two-class quality-of-service extension of Server:
// a latency story on top of the throughput story. A small population of
// *interactive* requests (one closed-loop client, request latency
// measured per request) runs against a sustained flood of *batch*
// requests (several clients, each keeping a deep window of outstanding
// request chains), both classes issuing the same two-task
// compute→apply chains over one shared, overlapping key table. With
// class priorities enabled the interactive chain carries
// core.MaxPriority and jumps the scheduler's ready queue ahead of the
// batch backlog; priority-blind, it waits its FIFO turn behind the
// whole flood — the difference is the interactive tail latency, which
// the per-class histograms record.
//
// Dependency semantics are identical in both modes (priorities order
// only *ready* tasks), so the final key table is exact and
// mode-independent: Verify replays the deterministic traffic serially.
// An interactive request whose key collides with an in-flight batch
// chain still waits for that chain through the dependency system; the
// key table is sized so collisions stay rare enough not to dominate the
// tail.
type QoSServer struct {
	nkeys         int
	batchClients  int
	interRequests int
	spin          int
	usePriority   bool

	// The batch class is stop-controlled, not count-controlled: each
	// client floods request chains through its window until the
	// interactive stream has completed (plus a per-client cap as a
	// memory guard), so every interactive sample is taken under load no
	// matter how fast either class runs on the host. The traffic is
	// deterministic *per request index*, so Verify stays exact: it
	// replays exactly the per-client prefixes that were issued.
	batchCap    int // per client
	batchIssued []int
	stop        atomic.Bool

	keys       []float64
	batchStage []float64 // batchClients * batchCap cells
	interStage []float64

	// Interactive and Batch record per-request latency in nanoseconds,
	// one histogram per class: from the client's submission start to
	// the *server-side* completion of the request's apply task,
	// recorded by the task body itself into the executing worker's
	// histogram shard (allocation-free). Server-side completion — not
	// the client goroutine's own wake-up — is the quantity the
	// scheduler controls: on a host whose cores are saturated by the
	// worker pool, the client's wake-up adds tens of milliseconds of
	// Go-scheduler noise that is identical in both scheduling modes
	// and says nothing about queueing policy.
	Interactive *counter.Histogram
	Batch       *counter.Histogram

	// Elapsed is the wall time of the last Run; with the batch class
	// dominating the request count, Elapsed/batchRequests is the batch
	// throughput cost the QoS layer must not degrade.
	Elapsed time.Duration

	// interArrivals, when set, switches the interactive client from
	// closed-loop (one outstanding request, latency from issue time) to
	// open-loop: requests are issued on the schedule regardless of
	// completions, and each latency is measured from its *scheduled*
	// instant, so scheduler-induced queueing shows up in the tail
	// instead of throttling the offered load (no coordinated omission).
	interArrivals Arrivals
}

const (
	// qosBatchWindow is each batch client's outstanding-request window:
	// deep enough that the ready backlog outlasts a client goroutine's
	// worst-case scheduling stall on a saturated host (so the flood
	// never collapses between refills), bounded so the live-task
	// population reaches steady state.
	qosBatchWindow = 64
	// qosBatchCapPerInter is the per-client memory guard on the
	// stop-controlled batch flood: at most this many batch requests per
	// interactive request per client (sized far above what any host
	// drains during one interactive round trip, so the stop flag — not
	// the cap — ends the flood).
	qosBatchCapPerInter = 400
	// qosSpinIters sizes each task's busy work (dependent FP
	// operations, ~2ns each): large enough that queue-drain time — what
	// the interactive class waits for when priority-blind — dominates
	// the worker pool's scheduling noise on small hosts, small enough
	// that a request is still an interactive-scale unit of work
	// (~100µs).
	qosSpinIters = 40000
)

// NewQoSServer builds a two-class scenario over nkeys shared keys:
// interRequests interactive requests against batchClients batch
// clients flooding until the interactive stream completes.
// usePriority selects the QoS mode; false is the priority-blind
// baseline the latency benchmarks compare against.
func NewQoSServer(nkeys, interRequests, batchClients int, usePriority bool) *QoSServer {
	if nkeys < 1 {
		nkeys = 1
	}
	if interRequests < 1 {
		interRequests = 1
	}
	if batchClients < 1 {
		batchClients = 1
	}
	// A client is a goroutine with its own outstanding window and
	// histogram shard; beyond a machine's worth of them the scenario
	// only measures Go-scheduler thrash.
	if batchClients > 64 {
		batchClients = 64
	}
	s := &QoSServer{
		nkeys:         nkeys,
		batchClients:  batchClients,
		interRequests: interRequests,
		batchCap:      qosBatchCapPerInter * interRequests,
		spin:          qosSpinIters,
		usePriority:   usePriority,
	}
	s.batchIssued = make([]int, batchClients)
	s.keys = make([]float64, nkeys)
	s.batchStage = make([]float64, batchClients*s.batchCap)
	s.interStage = make([]float64, s.interRequests)
	// Recorders are the workers executing the apply tasks; the shard
	// count is re-sized to the runtime's worker count at Run.
	s.Interactive = counter.NewHistogram(1)
	s.Batch = counter.NewHistogram(1)
	s.Reset()
	return s
}

// Name implements Workload.
func (s *QoSServer) Name() string { return "qos" }

// Reset implements Workload.
func (s *QoSServer) Reset() {
	for i := range s.keys {
		s.keys[i] = float64(1 + i%9)
	}
	clear(s.batchStage)
	clear(s.interStage)
	clear(s.batchIssued)
	s.stop.Store(false)
	s.Interactive.Reset()
	s.Batch.Reset()
	s.Elapsed = 0
}

// Deterministic per-request traffic, replayable by the serial
// reference. Both classes hash into the same key table — overlapping
// keys are the point of the scenario. A batch request is identified by
// its global index r = client*batchCap + i, so the issued prefixes are
// replayable per client no matter when the stop flag fired.
func (s *QoSServer) batchKey(r int) int { return int(uint64(r) * 2654435761 % uint64(s.nkeys)) }

func (s *QoSServer) batchDelta(r int) float64 { return float64(1 + (r*7+3)%11) }

func (s *QoSServer) interKey(r int) int {
	return int(uint64(r*40503+7) * 2654435761 % uint64(s.nkeys))
}

func (s *QoSServer) interDelta(r int) float64 { return float64(1 + (r*5+1)%7) }

// spinWork burns n dependent floating-point operations seeded by a
// positive value and returns exactly zero — as Floor(1/(x+2)) of an
// x ≥ 1, which the compiler cannot fold away — so task bodies can add
// it to their stores without perturbing the exact integer arithmetic
// Verify depends on.
func spinWork(seed float64, n int) float64 {
	x := seed + 2
	for i := 0; i < n; i++ {
		x = x*0.999999 + 1
	}
	return math.Floor(1 / (x + 2))
}

// qosInflight tracks one submitted request chain.
type qosInflight struct {
	compute, apply *core.Handle
}

// submitChain issues one compute→apply request chain, optionally
// tagged with the interactive priority level. The apply body records
// the request's server-side latency — from t0, the request's issue (or
// open-loop scheduled) instant, to apply completion — into the
// executing worker's shard of hist.
func (s *QoSServer) submitChain(rt *core.Runtime, stage, key *float64, delta float64, pri bool, hist *counter.Histogram, t0 time.Time) qosInflight {
	spin := s.spin
	var f qosInflight
	compute := func(*core.Ctx) (any, error) {
		*stage = delta + spinWork(delta, spin)
		return nil, nil
	}
	apply := func(c *core.Ctx) (any, error) {
		*key += *stage + spinWork(*stage, spin)
		hist.Record(c.Worker(), time.Since(t0).Nanoseconds())
		return nil, nil
	}
	if pri {
		f.compute = rt.Submit(compute, core.Out(stage), core.Priority(core.MaxPriority))
		f.apply = rt.Submit(apply, core.In(stage), core.InOut(key), core.Priority(core.MaxPriority))
	} else {
		f.compute = rt.Submit(compute, core.Out(stage))
		f.apply = rt.Submit(apply, core.In(stage), core.InOut(key))
	}
	return f
}

// await resolves a chain's handles, folding the first error into errp.
func (f *qosInflight) await(errp *error) {
	if f.apply == nil {
		return
	}
	if _, err := f.apply.Wait(nil); err != nil && *errp == nil {
		*errp = err
	}
	if _, err := f.compute.Wait(nil); err != nil && *errp == nil {
		*errp = err
	}
	f.apply, f.compute = nil, nil
}

// Run implements Workload: batch clients flood request chains through
// bounded windows until the stop flag fires, while the interactive
// client issues its requests one at a time, recording per-request
// latency; the last interactive completion raises the flag, so the
// whole interactive stream runs under load.
func (s *QoSServer) Run(rt *core.Runtime) error {
	// Size the per-worker recording shards for this runtime, reusing
	// the existing histograms (already zeroed by Reset) when the shard
	// count matches, so a caller's pre-Run reference stays live across
	// repeated runs on the same runtime.
	if w := rt.Slots(); s.Interactive.Recorders() != w {
		s.Interactive = counter.NewHistogram(w)
		s.Batch = counter.NewHistogram(w)
	}
	start := time.Now()
	errs := make([]error, s.batchClients+1)
	var wg sync.WaitGroup
	for g := 0; g < s.batchClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var win [qosBatchWindow]qosInflight
			n := 0
			// Each client always issues at least one window (so the
			// throughput and latency figures exist even on degenerate
			// runs), then keeps going until stop or its cap.
			for ; n < s.batchCap && (n < qosBatchWindow || !s.stop.Load()); n++ {
				r := g*s.batchCap + n
				i := n % qosBatchWindow
				win[i].await(&errs[g])
				win[i] = s.submitChain(rt,
					&s.batchStage[r], &s.keys[s.batchKey(r)], s.batchDelta(r), false, s.Batch, time.Now())
			}
			s.batchIssued[g] = n
			for i := range win {
				win[i].await(&errs[g])
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer s.stop.Store(true)
		if s.interArrivals == nil {
			// Closed loop: one outstanding request, latency from issue.
			for r := 0; r < s.interRequests; r++ {
				f := s.submitChain(rt,
					&s.interStage[r], &s.keys[s.interKey(r)], s.interDelta(r), s.usePriority, s.Interactive, time.Now())
				f.await(&errs[s.batchClients])
			}
			return
		}
		// Open loop: issue on the schedule without waiting for earlier
		// requests; latency origins are the scheduled instants.
		inflight := make([]qosInflight, s.interRequests)
		sched0 := time.Now()
		for r := 0; r < s.interRequests; r++ {
			i := r
			if i >= len(s.interArrivals) {
				i = len(s.interArrivals) - 1
			}
			t0 := s.interArrivals.Pace(sched0, i)
			inflight[r] = s.submitChain(rt,
				&s.interStage[r], &s.keys[s.interKey(r)], s.interDelta(r), s.usePriority, s.Interactive, t0)
		}
		for r := range inflight {
			inflight[r].await(&errs[s.batchClients])
		}
	}()
	wg.Wait()
	s.Elapsed = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SetInteractiveArrivals switches the interactive client to the given
// open-loop schedule (nil restores the closed-loop default). The
// schedule should hold one entry per interactive request; a shorter
// one issues the surplus requests immediately at its last instant.
func (s *QoSServer) SetInteractiveArrivals(a Arrivals) { s.interArrivals = a }

// BatchRequests returns the number of batch requests the last Run
// issued (stop-controlled, so it varies with host speed; the traffic
// itself is deterministic per index).
func (s *QoSServer) BatchRequests() int {
	n := 0
	for _, c := range s.batchIssued {
		n += c
	}
	return n
}

// RunSerial implements Workload: the per-client issued prefixes (or,
// before any Run, nothing) plus the interactive stream, in
// deterministic order on one goroutine.
func (s *QoSServer) RunSerial() {
	for g := 0; g < s.batchClients; g++ {
		for i := 0; i < s.batchIssued[g]; i++ {
			r := g*s.batchCap + i
			s.batchStage[r] = s.batchDelta(r)
			s.keys[s.batchKey(r)] += s.batchStage[r]
		}
	}
	for r := 0; r < s.interRequests; r++ {
		s.interStage[r] = s.interDelta(r)
		s.keys[s.interKey(r)] += s.interStage[r]
	}
}

// Verify implements Workload: exact per-key totals over exactly the
// issued requests of both classes — priorities may reorder ready tasks
// but never change the outcome.
func (s *QoSServer) Verify() error {
	want := make([]float64, s.nkeys)
	for k := range want {
		want[k] = float64(1 + k%9)
	}
	for g := 0; g < s.batchClients; g++ {
		for i := 0; i < s.batchIssued[g]; i++ {
			r := g*s.batchCap + i
			want[s.batchKey(r)] += s.batchDelta(r)
			if s.batchStage[r] != s.batchDelta(r) {
				return fmt.Errorf("qos: batch request %d staged %v, want %v", r, s.batchStage[r], s.batchDelta(r))
			}
		}
	}
	for r := 0; r < s.interRequests; r++ {
		want[s.interKey(r)] += s.interDelta(r)
		if s.interStage[r] != s.interDelta(r) {
			return fmt.Errorf("qos: interactive request %d staged %v, want %v", r, s.interStage[r], s.interDelta(r))
		}
	}
	for k := 0; k < s.nkeys; k++ {
		if s.keys[k] != want[k] {
			return fmt.Errorf("qos: key %d = %v, want %v", k, s.keys[k], want[k])
		}
	}
	return nil
}

// BatchNsPerRequest returns the last Run's batch-class cost: wall time
// per issued batch request (the batch class dominates the request mix,
// so the QoS layer's overhead shows up here).
func (s *QoSServer) BatchNsPerRequest() float64 {
	n := s.BatchRequests()
	if n == 0 || s.Elapsed == 0 {
		return 0
	}
	return float64(s.Elapsed.Nanoseconds()) / float64(n)
}

// TotalWork implements Workload: two element updates per request (the
// batch side counts the last Run's issued requests, or one window per
// client before any Run).
func (s *QoSServer) TotalWork() float64 { return float64(s.Tasks()) }

// Tasks implements Workload: two tasks per request.
func (s *QoSServer) Tasks() int {
	n := s.BatchRequests()
	if n == 0 {
		n = s.batchClients * qosBatchWindow
	}
	return 2 * (n + s.interRequests)
}

var _ Workload = (*QoSServer)(nil)
