package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// nopBody is a Body that returns at once.
type nopBody struct{}

func (nopBody) Run(*Ctx) error { return nil }

// TestRuntimePanicUnderBodyCrashes: a panic raised by runtime code that
// a helping loop runs under a body — here another root's completion,
// reached through Ctx.Await — crashes the process instead of becoming
// the waiting body's *PanicError. The trigger is a misuse that panics
// deterministically in completeOne: two roots resolve one Handle, so
// the second completion closes a closed channel. The crash is observed
// by re-running this test in a child process.
func TestRuntimePanicUnderBodyCrashes(t *testing.T) {
	if os.Getenv("CORE_CRASH_CHILD") == "1" {
		rt := New(Config{Workers: 1})
		err := rt.Run(func(c *Ctx) {
			var h Handle
			rt.SubmitBody(context.Background(), &h, nopBody{})
			rt.SubmitBody(context.Background(), &h, nopBody{})
			c.Await(&submitAny(rt, func(*Ctx) (any, error) { return nil, nil }).Handle)
		})
		// Reached only if the panic was recovered.
		fmt.Printf("run returned: %v\n", err)
		os.Exit(0)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestRuntimePanicUnderBodyCrashes$", "-test.count=1")
	cmd.Env = append(os.Environ(), "CORE_CRASH_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(out), "close of closed channel") || strings.Contains(string(out), "run returned") {
		t.Fatalf("child exited with %v, want a crash on close of closed channel; output:\n%s", err, out)
	}
}

// TestBodyPanicUnderHelpingRecovered: the other half of the rule — a
// body that panics while it runs inside another body's helping loop is
// still recovered as its own task's *PanicError, and so is the waiting
// body's own panic once the helping loop has returned.
func TestBodyPanicUnderHelpingRecovered(t *testing.T) {
	rt := New(Config{Workers: 1})
	defer rt.Close()
	var inner error
	err := rt.Run(func(c *Ctx) {
		f := submitAny(rt, func(*Ctx) (any, error) { panic("inner body") })
		inner = c.Await(&f.Handle)
		panic("outer body")
	})
	var pi, po *PanicError
	if !errors.As(inner, &pi) || pi.Value != "inner body" || !errors.As(err, &po) || po.Value != "outer body" {
		t.Fatalf("awaited = %v, Run = %v; want the inner and the outer body's *PanicError", inner, err)
	}
}
