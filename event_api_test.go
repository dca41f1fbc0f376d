package repro

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestWithEventsFutureResolvesAtDone checks the façade wiring: the
// adapted body returns immediately, the Future stays unresolved until
// the external completion fires from a plain goroutine, and the value
// captured at body return is delivered.
func TestWithEventsFutureResolvesAtDone(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Close()
	fire := make(chan struct{})
	var bodyDone atomic.Bool
	f := Submit(rt, WithEvents(func(c *Ctx, ev *EventCounter) (int, error) {
		ev.Add(1)
		go func() {
			<-fire
			ev.Done()
		}()
		bodyDone.Store(true)
		return 42, nil
	}))
	// The body has returned but the future must not resolve yet.
	deadline := time.Now().Add(5 * time.Second)
	for !bodyDone.Load() {
		if time.Now().After(deadline) {
			t.Fatal("body never ran")
		}
	}
	select {
	case <-f.Done():
		t.Fatal("future resolved before the event fired")
	case <-time.After(20 * time.Millisecond):
	}
	close(fire)
	v, err := f.Wait(nil)
	if err != nil || v != 42 {
		t.Fatalf("Wait = (%v, %v), want (42, nil)", v, err)
	}
}

// TestTypedAwaitJoinsEventedFuture checks Await from inside a task
// body: the awaiting task helps with other work while the awaited
// task is parked on a timer, and gets the typed result.
func TestTypedAwaitJoinsEventedFuture(t *testing.T) {
	rt := New(WithWorkers(1))
	defer rt.Close()
	backend := Submit(rt, func(c *Ctx) (string, error) {
		c.After(2 * time.Millisecond)
		return "reply", nil
	})
	var v string
	var aerr error
	if err := rt.Run(func(c *Ctx) {
		v, aerr = Await(c, backend)
	}); err != nil {
		t.Fatal(err)
	}
	if aerr != nil || v != "reply" {
		t.Fatalf("Await = (%q, %v), want (\"reply\", nil)", v, aerr)
	}
}

// TestDrainSealsFacadeSubmissions checks the re-exported sentinel: a
// drained runtime bounces façade submissions with ErrRuntimeDraining.
func TestDrainSealsFacadeSubmissions(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Close()
	f := Submit(rt, WithEvents(func(c *Ctx, ev *EventCounter) (int, error) {
		c.After(3 * time.Millisecond)
		return 7, nil
	}))
	if err := rt.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if v, err := f.Wait(nil); err != nil || v != 7 {
		t.Fatalf("pre-drain future = (%v, %v), want (7, nil)", v, err)
	}
	if _, err := Submit(rt, func(*Ctx) (int, error) { return 0, nil }).Wait(nil); !errors.Is(err, ErrRuntimeDraining) {
		t.Fatalf("post-drain Submit error = %v, want ErrRuntimeDraining", err)
	}
}
