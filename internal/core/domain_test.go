package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/deps"
)

// TestSlotDomainPartition pins the properties of the slot→domain
// formula (topology.go) that the rest of the runtime builds on: total
// coverage, worker-block contiguity and balance, round-robin spread of
// the non-worker slots, and agreement with deps.ShardDomain over the
// root-submitter range.
func TestSlotDomainPartition(t *testing.T) {
	cases := []struct{ workers, domains int }{
		{1, 1}, {4, 1}, {4, 2}, {8, 2}, {8, 3}, {7, 4}, {16, 4}, {5, 5},
	}
	for _, tc := range cases {
		const extra = 24 // stand-in for rootShards+eventSlots+serveSlots
		counts := make([]int, tc.domains)
		last := 0
		for w := 0; w < tc.workers; w++ {
			d := slotDomain(w, tc.workers, tc.domains)
			if d < 0 || d >= tc.domains {
				t.Fatalf("w=%d workers=%d domains=%d: domain %d out of range", w, tc.workers, tc.domains, d)
			}
			if d < last {
				t.Fatalf("workers=%d domains=%d: domain not monotone at worker %d (%d after %d)",
					tc.workers, tc.domains, w, d, last)
			}
			last = d
			counts[d]++
		}
		for d, n := range counts {
			if n == 0 {
				t.Fatalf("workers=%d domains=%d: domain %d owns no worker", tc.workers, tc.domains, d)
			}
			// Contiguous blocks of w*D/W differ in size by at most one.
			if min, max := tc.workers/tc.domains, (tc.workers+tc.domains-1)/tc.domains; n < min || n > max {
				t.Fatalf("workers=%d domains=%d: domain %d owns %d workers, want in [%d,%d]",
					tc.workers, tc.domains, d, n, min, max)
			}
		}
		for s := tc.workers; s < tc.workers+extra; s++ {
			got := slotDomain(s, tc.workers, tc.domains)
			if want := (s - tc.workers) % tc.domains; got != want {
				t.Fatalf("workers=%d domains=%d: non-worker slot %d in domain %d, want %d",
					tc.workers, tc.domains, s, got, want)
			}
			// The root range must agree with the deps-level formula.
			if want := deps.ShardDomain(s-tc.workers, tc.domains); got != want {
				t.Fatalf("workers=%d domains=%d: slot %d disagrees with deps.ShardDomain (%d vs %d)",
					tc.workers, tc.domains, s, got, want)
			}
		}
	}
}

// shedCases are the schedulers and victim backlogs the deterministic
// shed units run at: the central scheduler as before, and the
// synchronized one with a backlog small enough that it never batches
// and one of 2.5 run buffers (sched.Sync fills a home worker's buffer
// over a backlog of two) — a thief is not a home worker of its victim,
// so its TryGet must still move exactly one task.
var shedCases = []struct {
	name    string
	sk      SchedulerKind
	backlog int
}{
	{"central", SchedCentralPTLock, 10},
	{"sync", SchedSyncDTLock, 10},
	{"sync-batched", SchedSyncDTLock, 40},
}

// TestShedTakeBound drives the work-shedding protocol deterministically
// on a built-but-not-started runtime (no workers racing the test): a
// shed cycle takes at most ShedBatch tasks, from exactly one victim
// domain, returns the first for immediate execution and re-homes the
// rest into the thief's domain.
func TestShedTakeBound(t *testing.T) {
	for _, tc := range shedCases {
		t.Run(tc.name, func(t *testing.T) {
			rt := build(Config{
				Workers: 4, Domains: 2, ShedBatch: 3,
				Scheduler: tc.sk, IdleSpin: -1,
			})
			defer rt.Close()

			// Workers 0,1 are domain 0; workers 2,3 are domain 1 (topology.go).
			if rt.slotDom[0] != 0 || rt.slotDom[3] != 1 {
				t.Fatalf("unexpected worker partition: %v", rt.slotDom[:4])
			}
			backlog := int64(tc.backlog)
			tasks := make([]Task, backlog)
			for i := range tasks {
				tasks[i].alive.Store(1)
				rt.schedAdd(&tasks[i], 3) // slot 3 → domain 1
			}
			if got := rt.domains[1].pending(); got != backlog {
				t.Fatalf("domain 1 pending = %d after enqueue, want %d", got, backlog)
			}

			victim := 0
			first := rt.shedTake(0, 0, &victim) // worker 0, home domain 0
			if first == nil {
				t.Fatal("shedTake found nothing with a full remote backlog")
			}
			if first.qstate.Load() != 0 {
				t.Fatalf("stolen task still queued: qstate=%d", first.qstate.Load())
			}
			if got := rt.domains[1].shedOut.Load(); got != 3 {
				t.Fatalf("victim shedOut = %d, want ShedBatch (3)", got)
			}
			if got := rt.domains[0].shedIn.Load(); got != 3 {
				t.Fatalf("thief shedIn = %d, want 3", got)
			}
			// First task is in hand; the other two re-homed into domain 0's
			// scheduler, where the thief's domain-mates can claim them.
			if got := rt.domains[0].pending(); got != 2 {
				t.Fatalf("thief domain pending = %d after re-home, want 2", got)
			}
			if got := rt.domains[1].pending(); got != backlog-3 {
				t.Fatalf("victim pending = %d, want %d", got, backlog-3)
			}

			// A second cycle takes at most another batch — the bound is per
			// empty-recheck cycle, never cumulative slack.
			before := rt.domains[1].pending()
			if rt.shedTake(0, 0, &victim) == nil {
				t.Fatal("second shed cycle found nothing")
			}
			if moved := before - rt.domains[1].pending(); moved > 3 {
				t.Fatalf("second cycle moved %d tasks, want <= 3", moved)
			}

			// Nothing else left the victim's queue: its own worker finds
			// the remainder there, in order. A thief that had batched would
			// be sitting on the next sixteen.
			for i := 6; i < len(tasks); i++ {
				if got := rt.schedTook(rt.domains[1].sched.Get(2), 1, 2); got != &tasks[i] {
					t.Fatalf("victim's worker got task %p at position %d, want task %d (%p)", got, i, i, &tasks[i])
				}
			}
			if d0, d1 := rt.domains[0].pending(), rt.domains[1].pending(); d0 != 4 || d1 != 0 {
				t.Fatalf("pending = %d (thief), %d (victim) after the victim drained, want 4, 0", d0, d1)
			}
			out, in := rt.domains[1].shedOut.Load(), rt.domains[0].shedIn.Load()
			if taken := uint64(backlog) - uint64(len(tasks)-6); out != in || out != taken {
				t.Fatalf("shedOut %d, shedIn %d, tasks that crossed %d: want all equal", out, in, taken)
			}
		})
	}
}

// TestShedTakeSingleVictim: one cycle never opens a second victim once
// the first has paid out, even when another remote domain also holds a
// larger backlog.
func TestShedTakeSingleVictim(t *testing.T) {
	for _, tc := range shedCases {
		t.Run(tc.name, func(t *testing.T) {
			rt := build(Config{
				Workers: 6, Domains: 3, ShedBatch: 4,
				Scheduler: tc.sk, IdleSpin: -1,
			})
			defer rt.Close()

			// Workers 0,1→dom0; 2,3→dom1; 4,5→dom2. Domain 1 holds less
			// than a shed batch when the backlog is small, domain 2 always
			// more than domain 1.
			small := tc.backlog / 5
			tasks := make([]Task, small+tc.backlog)
			for i := range tasks {
				tasks[i].alive.Store(1)
				if i < small {
					rt.schedAdd(&tasks[i], 2) // domain 1: small backlog
				} else {
					rt.schedAdd(&tasks[i], 4) // domain 2: larger backlog
				}
			}

			victim := 0
			if rt.shedTake(0, 0, &victim) == nil {
				t.Fatal("shedTake found nothing")
			}
			// The round-robin scan hit domain 1 first; what it paid out
			// (all it had, or one batch) is the whole payout — domain 2
			// must be untouched this cycle.
			if got, want := rt.domains[1].shedOut.Load(), uint64(min(small, 4)); got != want {
				t.Fatalf("domain 1 shedOut = %d, want %d", got, want)
			}
			if got := rt.domains[2].shedOut.Load(); got != 0 {
				t.Fatalf("domain 2 shedOut = %d, want 0 (single victim per cycle)", got)
			}
			if victim != 1 {
				t.Fatalf("victim cursor = %d, want 1", victim)
			}
			// Next cycle resumes round-robin after the last victim.
			if rt.shedTake(0, 0, &victim) == nil {
				t.Fatal("second cycle found nothing")
			}
			if got := rt.domains[2].shedOut.Load(); got != 4 {
				t.Fatalf("domain 2 shedOut = %d after second cycle, want 4", got)
			}
			if out, in := rt.domains[1].shedOut.Load()+4, rt.domains[0].shedIn.Load(); out != in {
				t.Fatalf("shedOut %d across the victims, thief shedIn %d", out, in)
			}
			if got, want := rt.domains[2].pending(), int64(tc.backlog-4); got != want {
				t.Fatalf("domain 2 pending = %d after one batch left it, want %d", got, want)
			}
		})
	}
}

// TestShedTakeStaleDuplicate: a stale promotion duplicate consumed
// during a shed cycle is not counted against the batch bound and is
// not returned as stolen work.
func TestShedTakeStaleDuplicate(t *testing.T) {
	rt := build(Config{
		Workers: 4, Domains: 2, ShedBatch: 2,
		Scheduler: SchedCentralPTLock, IdleSpin: -1,
	})
	defer rt.Close()

	tasks := make([]Task, 3)
	for i := range tasks {
		tasks[i].alive.Store(1)
		rt.schedAdd(&tasks[i], 3) // domain 1
	}
	// Simulate the stale-duplicate state a promotion re-push leaves
	// behind: the first queue entry's task was already claimed
	// (qstate 0), so schedTook dissolves it into a nil.
	tasks[0].qstate.Store(0)

	victim := 0
	first := rt.shedTake(0, 0, &victim)
	if first == nil {
		t.Fatal("shedTake found nothing")
	}
	if first == &tasks[0] {
		t.Fatal("shedTake returned a stale duplicate as work")
	}
	if got := rt.domains[1].shedOut.Load(); got != 2 {
		t.Fatalf("shedOut = %d, want 2 (stale entry must not count)", got)
	}
}

// TestStatsDomains checks the Stats per-domain breakdown on a live
// multi-domain runtime: flat fields equal the totals over domains, the
// domain worker counts partition the pool, and the retention counters
// account every executed task.
func TestStatsDomains(t *testing.T) {
	rt := New(Config{Workers: 4, Domains: 2})
	defer rt.Close()

	var n atomic.Int64
	err := rt.Run(func(c *Ctx) {
		for i := 0; i < 256; i++ {
			c.Spawn(func(*Ctx) { n.Add(1) })
		}
		c.Taskwait()
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != 256 {
		t.Fatalf("ran %d tasks, want 256", n.Load())
	}

	s := rt.Stats()
	if len(s.Domains) != 2 {
		t.Fatalf("len(Domains) = %d, want 2", len(s.Domains))
	}
	var workers int
	var parks, wakes, executed, executedHome uint64
	var pending int64
	for _, d := range s.Domains {
		workers += d.Workers
		parks += d.Parks
		wakes += d.Wakes
		pending += d.Pending
		executed += d.Executed
		executedHome += d.ExecutedHome
		if d.ExecutedHome > d.Executed {
			t.Fatalf("domain retention over 100%%: home %d > executed %d", d.ExecutedHome, d.Executed)
		}
	}
	if workers != s.Workers || s.Workers != 4 {
		t.Fatalf("domain workers sum to %d, flat %d, want 4", workers, s.Workers)
	}
	if parks != s.Parks || wakes != s.Wakes || pending != s.Pending {
		t.Fatalf("flat totals diverge from domain sums: parks %d/%d wakes %d/%d pending %d/%d",
			s.Parks, parks, s.Wakes, wakes, s.Pending, pending)
	}
	// Every spawned task (and the root) executed on some domain; the
	// home subset can never exceed the total. Inline-served or helped
	// executions also charge the executing slot's domain, so the total
	// is at least the spawn count.
	if executed < 256 {
		t.Fatalf("executed = %d across domains, want >= 256", executed)
	}
	if executedHome > executed {
		t.Fatalf("executedHome %d > executed %d", executedHome, executed)
	}
}
