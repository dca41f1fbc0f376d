package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// errFuzzTask is the sentinel failure injected into fail-marked tasks;
// the scope must deliver exactly one copy per failing task that ran.
var errFuzzTask = errors.New("fuzz task failure")

// fuzzTask is one decoded task of a fuzz DAG: an access set over a
// small cell pool and a failure mark.
type fuzzTask struct {
	accs []AccessSpec
	fail bool
}

// decodeFuzzGraph turns an arbitrary byte string into a bounded DAG
// spec. Per task: one control byte (bits 0-1 access count, bit 2
// failure mark), then one byte per access (bits 0-2 cell index, bits
// 3-5 access-type selector). Truncated input simply ends the graph, so
// every byte string decodes to a valid spec.
func decodeFuzzGraph(data []byte, cells *[8]float64) []fuzzTask {
	const maxTasks = 48
	var tasks []fuzzTask
	i := 0
	for i < len(data) && len(tasks) < maxTasks {
		ctl := data[i]
		i++
		ft := fuzzTask{fail: ctl&4 != 0}
		na := int(ctl & 3)
		for a := 0; a < na && i < len(data); a++ {
			ab := data[i]
			i++
			p := &cells[ab&7]
			switch (ab >> 3) & 7 {
			case 0, 6:
				ft.accs = append(ft.accs, In(p))
			case 1, 7:
				ft.accs = append(ft.accs, Out(p))
			case 2:
				ft.accs = append(ft.accs, InOut(p))
			case 3:
				ft.accs = append(ft.accs, Commutative(p))
			case 4:
				ft.accs = append(ft.accs, WeakIn(p))
			case 5:
				ft.accs = append(ft.accs, WeakInOut(p))
			}
		}
		tasks = append(tasks, ft)
	}
	return tasks
}

// countFuzzErrs walks an error tree counting sentinel occurrences:
// CollectAll must deliver exactly one per failing task.
func countFuzzErrs(err error) int {
	switch {
	case err == nil:
		return 0
	case err == errFuzzTask:
		return 1
	}
	switch x := err.(type) {
	case interface{ Unwrap() []error }:
		n := 0
		for _, e := range x.Unwrap() {
			n += countFuzzErrs(e)
		}
		return n
	case interface{ Unwrap() error }:
		return countFuzzErrs(x.Unwrap())
	}
	return 0
}

// FuzzGraphExecution decodes a byte string into a DAG spec and runs it
// through both dependency systems under both error policies, asserting
// the runtime's structural guarantees: the graph always unwinds
// (watchdog), live-task accounting returns to zero, and the scope's
// error policy delivers exactly the declared failures.
func FuzzGraphExecution(f *testing.F) {
	f.Add([]byte{})
	// A chain with a failure in the middle.
	f.Add([]byte{0x01, 0x0A, 0x01, 0x12, 0x05, 0x12, 0x01, 0x12, 0x01, 0x02})
	// Commutative storm over two cells with a weak anchor.
	f.Add([]byte{0x02, 0x18, 0x19, 0x02, 0x18, 0x19, 0x01, 0x28, 0x02, 0x19, 0x18})
	// Readers fanning out behind a writer, then another writer.
	f.Add([]byte{0x01, 0x08, 0x01, 0x00, 0x01, 0x00, 0x01, 0x30, 0x01, 0x08})
	// Duplicate addresses within one task (alias path) plus failures.
	f.Add([]byte{0x07, 0x10, 0x10, 0x08, 0x06, 0x2A, 0x12, 0x03, 0x00, 0x08, 0x10})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, dk := range []DepsKind{DepsWaitFree, DepsLocked} {
			for _, pol := range []ErrorPolicy{FailFast, CollectAll} {
				runFuzzGraph(t, data, dk, pol)
			}
		}
	})
}

func runFuzzGraph(t *testing.T, data []byte, dk DepsKind, pol ErrorPolicy) {
	var cells [8]float64
	tasks := decodeFuzzGraph(data, &cells)
	nFail := 0
	for _, ft := range tasks {
		if ft.fail {
			nFail++
		}
	}

	rt := New(Config{Workers: 2, Deps: dk, OnError: pol})
	defer rt.Close()

	var executed atomic.Int64
	handles := make([]*anyFuture, len(tasks))
	done := make(chan error, 1)
	go func() {
		done <- rt.Run(func(c *Ctx) {
			for i, ft := range tasks {
				ft := ft
				handles[i] = goAny(c, func(*Ctx) (any, error) {
					executed.Add(1)
					if ft.fail {
						return nil, errFuzzTask
					}
					return i, nil
				}, ft.accs...)
			}
		})
	}()

	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("deps=%d policy=%v: deadlock: graph did not unwind within 30s (%d/%d tasks executed)",
			dk, pol, executed.Load(), len(tasks))
	}
	if n := rt.LiveTasks(); n != 0 {
		t.Fatalf("deps=%d policy=%v: LiveTasks = %d after Run returned", dk, pol, n)
	}

	switch {
	case nFail == 0:
		if err != nil {
			t.Fatalf("deps=%d policy=%v: unexpected error %v", dk, pol, err)
		}
		if got := executed.Load(); got != int64(len(tasks)) {
			t.Fatalf("deps=%d policy=%v: executed %d of %d tasks", dk, pol, got, len(tasks))
		}
	case pol == CollectAll:
		// Nothing cancels under CollectAll: every task runs, and the
		// aggregate carries exactly one sentinel per failing task.
		if got := executed.Load(); got != int64(len(tasks)) {
			t.Fatalf("collect-all: executed %d of %d tasks", got, len(tasks))
		}
		if got := countFuzzErrs(err); got != nFail {
			t.Fatalf("collect-all: %d sentinel errors in %v, want %d", got, err, nFail)
		}
	default: // FailFast with failures
		if !errors.Is(err, errFuzzTask) {
			t.Fatalf("fail-fast: error %v does not wrap the task failure", err)
		}
		if got := executed.Load(); got > int64(len(tasks)) {
			t.Fatalf("fail-fast: executed %d of %d tasks", got, len(tasks))
		}
	}

	// Handle-level checks: every handle resolves; under CollectAll the
	// outcome per task is fully determined.
	for i, h := range handles {
		if h == nil {
			continue
		}
		v, herr := h.Wait(nil)
		switch {
		case tasks[i].fail && herr == nil:
			t.Fatalf("task %d: failing task's handle returned nil error", i)
		case tasks[i].fail && !errors.Is(herr, errFuzzTask) && !errors.Is(herr, ErrTaskSkipped):
			t.Fatalf("task %d: handle error %v is neither the failure nor a skip", i, herr)
		case !tasks[i].fail && pol == CollectAll:
			if herr != nil {
				t.Fatalf("collect-all task %d: handle error %v", i, herr)
			}
			if v != i {
				t.Fatalf("collect-all task %d: result %v, want %d", i, v, i)
			}
		case !tasks[i].fail && herr != nil && !errors.Is(herr, ErrTaskSkipped):
			t.Fatalf("task %d: non-failing handle error %v is not a skip", i, herr)
		}
	}
}
