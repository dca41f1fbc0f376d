package trace

import (
	"strings"
	"testing"
)

func TestSummaryStringRendersRows(t *testing.T) {
	tr := New(2, 64)
	tr.EmitTS(0, KTaskStart, 0, 0)
	tr.EmitTS(0, KTaskEnd, 0, 1000)
	tr.EmitTS(1, KServe, 0, 500)
	s := Analyze(tr.Snapshot())
	out := s.String()
	if !strings.Contains(out, "starvation") || !strings.Contains(out, "core") {
		t.Fatalf("summary header missing:\n%s", out)
	}
	// Both active workers must appear as rows.
	if strings.Count(out, "\n") < 4 {
		t.Fatalf("missing rows:\n%s", out)
	}
}

func TestStarvationAllIdle(t *testing.T) {
	tr := New(2, 16)
	// Only point events, no intervals: everything counts as idle.
	tr.EmitTS(0, KServe, 1, 0)
	tr.EmitTS(0, KServe, 1, 1000)
	s := Analyze(tr.Snapshot())
	if s.StarvationPct() != 100 {
		t.Fatalf("starvation = %v, want 100", s.StarvationPct())
	}
}

func TestStarvationZeroWhenFullyBusy(t *testing.T) {
	tr := New(0, 16) // a single emitter slot
	tr.EmitTS(0, KTaskStart, 0, 0)
	tr.EmitTS(0, KTaskEnd, 0, 1000)
	s := Analyze(tr.Snapshot())
	if s.StarvationPct() != 0 {
		t.Fatalf("starvation = %v, want 0", s.StarvationPct())
	}
}

func TestAnalyzeNestedIntervals(t *testing.T) {
	// taskwait inside a task: the outer interval owns the whole span,
	// nested open/close must not double count.
	tr := New(1, 64)
	tr.EmitTS(0, KTaskStart, 0, 0)
	tr.EmitTS(0, KTaskwaitStart, 0, 100)
	tr.EmitTS(0, KTaskwaitEnd, 0, 400)
	tr.EmitTS(0, KTaskEnd, 0, 1000)
	s := Analyze(tr.Snapshot())
	w := s.Workers[0]
	if w.TaskTime+w.RuntimeTime != 1000 {
		t.Fatalf("accounted %d ns, want 1000", w.TaskTime+w.RuntimeTime)
	}
}

func TestDepPointEventsChargeRuntime(t *testing.T) {
	tr := New(1, 16)
	tr.EmitTS(0, KDepRegister, 250, 0)
	tr.EmitTS(0, KDepUnregister, 150, 500)
	s := Analyze(tr.Snapshot())
	if s.Workers[0].RuntimeTime != 400 {
		t.Fatalf("RuntimeTime = %d, want 400", s.Workers[0].RuntimeTime)
	}
}

func TestEmptyTraceTimeline(t *testing.T) {
	tr := New(1, 4)
	if out := Timeline(tr.Snapshot(), 10); !strings.Contains(out, "empty") {
		t.Fatalf("empty trace not reported: %q", out)
	}
}

func TestTimelineWidthClamp(t *testing.T) {
	tr := New(1, 16)
	tr.EmitTS(0, KTaskStart, 0, 0)
	tr.EmitTS(0, KTaskEnd, 0, 100)
	out := Timeline(tr.Snapshot(), 0) // 0 selects the default width
	if !strings.Contains(out, "#") {
		t.Fatal("default width render failed")
	}
}

func TestAnalyzeCountsCellSteals(t *testing.T) {
	tr := New(2, 16)
	tr.EmitTS(0, KCellSteal, 2, 100)
	tr.EmitTS(0, KCellSteal, 2, 200)
	tr.EmitTS(1, KCellSteal, 2, 300)
	s := Analyze(tr.Snapshot())
	if s.Workers[0].CellSteals != 2 || s.Workers[1].CellSteals != 1 || s.Totals().CellSteals != 3 {
		t.Fatalf("cell steals %d, %d, total %d; want 2, 1, 3",
			s.Workers[0].CellSteals, s.Workers[1].CellSteals, s.Totals().CellSteals)
	}
	if s.StarvationPct() != 100 {
		t.Fatalf("starvation = %v: a steal is a point event, not busy time", s.StarvationPct())
	}
	if KCellSteal.String() != "cell-steal" {
		t.Fatalf("KCellSteal.String() = %q", KCellSteal.String())
	}
}

func TestAnalyzeCountsNodeOffers(t *testing.T) {
	tr := New(2, 16)
	tr.EmitTS(0, KNodeOffer, 3, 100)
	tr.EmitTS(1, KNodeOffer, 4, 200)
	tr.EmitTS(1, KNodeOffer, 3, 300)
	s := Analyze(tr.Snapshot())
	if s.Workers[0].Offers != 1 || s.Workers[1].Offers != 2 || s.Totals().Offers != 3 {
		t.Fatalf("node offers %d, %d, total %d; want 1, 2, 3",
			s.Workers[0].Offers, s.Workers[1].Offers, s.Totals().Offers)
	}
	if s.Totals().TaskCount != 0 || s.StarvationPct() != 100 {
		t.Fatalf("tasks %d, starvation %v: an offer run as a call is a point event, not a task",
			s.Totals().TaskCount, s.StarvationPct())
	}
	if KNodeOffer.String() != "node-offer" {
		t.Fatalf("KNodeOffer.String() = %q", KNodeOffer.String())
	}
}
