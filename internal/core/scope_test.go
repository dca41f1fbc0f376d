package core

import (
	"context"
	"errors"
	"testing"
)

// TestHandleSubmit exercises the untyped core Submit surface directly.
func TestHandleSubmit(t *testing.T) {
	rt := New(Config{Workers: 2})
	defer rt.Close()

	h := submitAny(rt, func(*Ctx) (any, error) { return 41, nil })
	v, err := h.Wait(nil)
	if err != nil || v.(int) != 41 {
		t.Fatalf("Wait = %v, %v; want 41, nil", v, err)
	}

	boom := errors.New("boom")
	h = submitAny(rt, func(*Ctx) (any, error) { return nil, boom })
	if _, err := h.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want %v", err, boom)
	}
}

// TestSubmitDuringRun: Submit issued from another goroutine while a Run
// is in flight must not deadlock (registration-only serialization).
func TestSubmitDuringRun(t *testing.T) {
	rt := New(Config{Workers: 4})
	defer rt.Close()

	inRun := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- rt.Run(func(c *Ctx) {
			close(inRun)
			<-release
		})
	}()
	<-inRun
	h := submitAny(rt, func(*Ctx) (any, error) { return "ok", nil })
	v, err := h.Wait(nil) // completes while the Run is still blocked
	if err != nil || v.(string) != "ok" {
		t.Fatalf("Submit during Run = %v, %v", v, err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestScopeAbortCause covers the nil-scope fast path and cause
// propagation order.
func TestScopeAbortCause(t *testing.T) {
	var sc *scope
	if sc.abortCause() != nil {
		t.Fatal("nil scope must report no abort")
	}
	sc = newScope(nil, FailFast)
	if sc.abortCause() != nil {
		t.Fatal("fresh scope must report no abort")
	}
	e1, e2 := errors.New("e1"), errors.New("e2")
	sc.fail(e1)
	sc.fail(e2)
	if got := sc.abortCause(); got != e1 {
		t.Fatalf("abortCause = %v, want first failure e1", got)
	}
	if err := sc.err(); !errors.Is(err, e1) || !errors.Is(err, e2) {
		t.Fatalf("scope err = %v, want join of e1, e2", err)
	}

	// Context cancellation is observed synchronously after cancel.
	ctx, cancel := context.WithCancelCause(context.Background())
	sc = newScope(ctx, FailFast)
	cause := errors.New("cause")
	cancel(cause)
	if got := sc.abortCause(); got != cause {
		t.Fatalf("abortCause after cancel = %v, want %v", got, cause)
	}
}

// TestSkipErrorUnwrap pins the skip error contract: errors.Is matches
// both ErrTaskSkipped and the cancellation cause.
func TestSkipErrorUnwrap(t *testing.T) {
	cause := errors.New("root cause")
	err := error(&skipError{cause: cause})
	if !errors.Is(err, ErrTaskSkipped) || !errors.Is(err, cause) {
		t.Fatalf("skipError %v must wrap ErrTaskSkipped and cause", err)
	}
}

// TestErrorPolicyString keeps the diagnostics stable.
func TestErrorPolicyString(t *testing.T) {
	if FailFast.String() != "fail-fast" || CollectAll.String() != "collect-all" {
		t.Fatalf("policy strings = %q, %q", FailFast, CollectAll)
	}
}

// TestCollectAllKeepsRunning: core-level check that CollectAll does not
// abort the scope.
func TestCollectAllKeepsRunning(t *testing.T) {
	rt := New(Config{Workers: 2, OnError: CollectAll})
	defer rt.Close()

	ran := 0
	err := rt.Run(func(c *Ctx) {
		goAny(c, func(*Ctx) (any, error) { return nil, errors.New("early") })
		c.Spawn(func(*Ctx) { ran++ })
		c.Taskwait()
	})
	if err == nil {
		t.Fatal("Run must surface the collected error")
	}
	if ran != 1 {
		t.Fatalf("ran = %d, want 1 (CollectAll must not drain)", ran)
	}
}
