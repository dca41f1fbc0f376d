package trace

import (
	"fmt"
	"sort"
	"strings"
)

// WorkerStats is the per-worker time breakdown derived from a trace.
type WorkerStats struct {
	TaskTime     int64 // ns spent inside task bodies
	RuntimeTime  int64 // ns spent inside the scheduler and dep system
	IdleTime     int64 // ns spent idle (no interval open)
	TaskCount    int
	Continues    int // compiled-graph nodes run as calls inside those tasks
	Offers       int // offered compiled-graph nodes taken back and run as calls
	SpawnHelps   int // Spawn help episodes (the creator passed the spawn window)
	SpawnHelped  int // tasks those episodes ran
	CellSteals   int // offers taken from another slot's hand-off cells
	Serves       int // tasks this worker served to others as DTLock owner
	ServedTo     int // (aggregated) times this worker received a served task
	Drains       int // SPSC drain operations
	DrainedTasks int
	Interrupts   int
	InterruptNS  int64
}

// Summary aggregates a trace into per-worker and total statistics.
type Summary struct {
	Workers []WorkerStats
	Span    int64 // trace duration ns
}

// Analyze derives interval statistics from the event streams. Intervals
// are reconstructed per worker from Start/End pairs; anything not covered
// by a task, scheduler, dependency, or taskwait interval counts as idle.
func Analyze(tr *Trace) *Summary {
	lo, hi := tr.Span()
	s := &Summary{Workers: make([]WorkerStats, len(tr.PerCore)), Span: hi - lo}
	for c, evs := range tr.PerCore {
		ws := &s.Workers[c]
		var busy int64 // total time covered by any open interval
		var openTS int64
		depth := 0
		openKind := Kind(0)
		openInterval := func(k Kind, ts int64) {
			if depth == 0 {
				openTS = ts
				openKind = k
			}
			depth++
		}
		closeInterval := func(ts int64, charge *int64) {
			if depth == 0 {
				return
			}
			depth--
			if depth == 0 {
				d := ts - openTS
				busy += d
				*charge += d
				_ = openKind
			}
		}
		for _, e := range evs {
			switch e.Kind {
			case KTaskStart:
				openInterval(e.Kind, e.TS)
				ws.TaskCount++
			case KTaskEnd:
				closeInterval(e.TS, &ws.TaskTime)
			case KNodeContinue:
				ws.Continues++
			case KNodeOffer:
				ws.Offers++
			case KSpawnHelp:
				ws.SpawnHelps++
				ws.SpawnHelped += int(e.Arg)
			case KCellSteal:
				ws.CellSteals++
			case KSchedEnter, KTaskwaitStart:
				openInterval(e.Kind, e.TS)
			case KSchedLeave, KTaskwaitEnd:
				closeInterval(e.TS, &ws.RuntimeTime)
			case KDepRegister, KDepUnregister:
				// Point events carrying their duration in Arg.
				ws.RuntimeTime += int64(e.Arg)
			case KServe:
				ws.Serves++
				if int(e.Arg) < len(s.Workers) {
					s.Workers[e.Arg].ServedTo++
				}
			case KDrain:
				ws.Drains++
				ws.DrainedTasks += int(e.Arg)
			case KInterrupt:
				ws.Interrupts++
				ws.InterruptNS += int64(e.Arg)
			}
		}
		ws.IdleTime = s.Span - busy
		if ws.IdleTime < 0 {
			ws.IdleTime = 0
		}
	}
	return s
}

// Totals sums the per-worker statistics.
func (s *Summary) Totals() WorkerStats {
	var t WorkerStats
	for _, w := range s.Workers {
		t.TaskTime += w.TaskTime
		t.RuntimeTime += w.RuntimeTime
		t.IdleTime += w.IdleTime
		t.TaskCount += w.TaskCount
		t.Continues += w.Continues
		t.Offers += w.Offers
		t.SpawnHelps += w.SpawnHelps
		t.SpawnHelped += w.SpawnHelped
		t.CellSteals += w.CellSteals
		t.Serves += w.Serves
		t.ServedTo += w.ServedTo
		t.Drains += w.Drains
		t.DrainedTasks += w.DrainedTasks
		t.Interrupts += w.Interrupts
		t.InterruptNS += w.InterruptNS
	}
	return t
}

// StarvationPct returns the fraction of total worker time spent idle, in
// percent: the "most cores starve (in khaki green)" measure of Fig. 10.
func (s *Summary) StarvationPct() float64 {
	t := s.Totals()
	total := t.TaskTime + t.RuntimeTime + t.IdleTime
	if total == 0 {
		return 0
	}
	return 100 * float64(t.IdleTime) / float64(total)
}

// String renders a compact human-readable table.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "span %.3f ms, starvation %.1f%%\n", float64(s.Span)/1e6, s.StarvationPct())
	fmt.Fprintf(&b, "%6s %10s %10s %10s %7s %7s %7s\n",
		"core", "task(ms)", "rt(ms)", "idle(ms)", "ntask", "serves", "intr")
	for c, w := range s.Workers {
		if w.TaskCount == 0 && w.Serves == 0 && w.TaskTime == 0 && w.RuntimeTime == 0 {
			continue
		}
		fmt.Fprintf(&b, "%6d %10.3f %10.3f %10.3f %7d %7d %7d\n",
			c, float64(w.TaskTime)/1e6, float64(w.RuntimeTime)/1e6,
			float64(w.IdleTime)/1e6, w.TaskCount, w.Serves, w.Interrupts)
	}
	return b.String()
}

// Timeline renders an ASCII view in the spirit of Figures 10-11: one row
// per core, time bucketed into width columns, each cell showing the
// dominant activity: '#' task, '.' runtime, 'S' serving, '!' interrupt,
// ' ' idle.
func Timeline(tr *Trace, width int) string {
	if width <= 0 {
		width = 100
	}
	lo, hi := tr.Span()
	if hi <= lo {
		return "(empty trace)\n"
	}
	bucket := func(ts int64) int {
		b := int((ts - lo) * int64(width) / (hi - lo + 1))
		if b >= width {
			b = width - 1
		}
		return b
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline: %d cores, %.3f ms, %d cols (# task, . runtime, S serve, ! interrupt)\n",
		len(tr.PerCore), float64(hi-lo)/1e6, width)
	for c, evs := range tr.PerCore {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		fill := func(from, to int64, ch byte, override bool) {
			for i := bucket(from); i <= bucket(to); i++ {
				if override || row[i] == ' ' {
					row[i] = ch
				}
			}
		}
		var taskStart, rtStart int64 = -1, -1
		for _, e := range evs {
			switch e.Kind {
			case KTaskStart:
				taskStart = e.TS
			case KTaskEnd:
				if taskStart >= 0 {
					fill(taskStart, e.TS, '#', true)
					taskStart = -1
				}
			case KSchedEnter, KTaskwaitStart:
				if rtStart < 0 {
					rtStart = e.TS
				}
			case KSchedLeave, KTaskwaitEnd:
				if rtStart >= 0 {
					fill(rtStart, e.TS, '.', false)
					rtStart = -1
				}
			case KDepRegister, KDepUnregister:
				if int64(e.Arg) > 0 {
					fill(e.TS, e.TS+int64(e.Arg), '.', false)
				}
			case KServe:
				row[bucket(e.TS)] = 'S'
			case KInterrupt:
				fill(e.TS, e.TS+int64(e.Arg), '!', true)
			}
		}
		fmt.Fprintf(&b, "%3d |%s|\n", c, row)
	}
	return b.String()
}

// ServeGaps returns the sorted intervals between consecutive KServe
// events of the DTLock owner(s); Figure 11 reads the change in this
// pattern (regular vs irregular serving) around an interrupt.
func ServeGaps(tr *Trace) []int64 {
	var ts []int64
	for _, evs := range tr.PerCore {
		for _, e := range evs {
			if e.Kind == KServe {
				ts = append(ts, e.TS)
			}
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	gaps := make([]int64, 0, len(ts))
	for i := 1; i < len(ts); i++ {
		gaps = append(gaps, ts[i]-ts[i-1])
	}
	return gaps
}
