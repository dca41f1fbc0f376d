package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestRootAdmission drives every root kind through the one admission
// and the one completion fold: a sealed runtime rejects the root with
// ErrRuntimeDraining before its body can run, a context cancelled before
// submission drains the root with a skip marker that carries the cause,
// and a FailFast child's error reaches the root's result slot — a
// Handle for Run, Submit and loops, a Req on both SubmitReq paths.
func TestRootAdmission(t *testing.T) {
	dispatch := testConfig(VariantOptimized)
	dispatch.ServeSlots = -1
	req := func(rt *Runtime, ctx context.Context, body func(*Ctx)) error {
		r := NewReq()
		rt.SubmitReq(ctx, r, 0, body)
		return r.Wait()
	}
	kinds := []struct {
		name   string
		cfg    Config
		submit func(rt *Runtime, ctx context.Context, body func(*Ctx)) error
	}{
		{"run", testConfig(VariantOptimized), func(rt *Runtime, ctx context.Context, body func(*Ctx)) error {
			return rt.RunCtx(ctx, body)
		}},
		{"submit", testConfig(VariantOptimized), func(rt *Runtime, ctx context.Context, body func(*Ctx)) error {
			_, err := rt.SubmitCtx(ctx, func(c *Ctx) (any, error) { body(c); return nil, nil }).Wait(nil)
			return err
		}},
		{"loop", testConfig(VariantOptimized), func(rt *Runtime, ctx context.Context, body func(*Ctx)) error {
			_, err := rt.SubmitLoop(ctx, 0, 1, 1, func(c *Ctx, _, _ int) { body(c) }).Wait(nil)
			return err
		}},
		{"req-inline", testConfig(VariantOptimized), req},
		{"req-dispatch", dispatch, req},
	}
	boom := errors.New("boom")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	rows := []struct {
		name    string
		ctx     context.Context
		drain   bool
		body    func(*Ctx)
		runs    bool
		wantErr []error
	}{
		{"sealed", context.Background(), true, nil, false, []error{ErrRuntimeDraining}},
		{"cancelled", cancelled, false, nil, false, []error{ErrTaskSkipped, context.Canceled}},
		{"child-fails", context.Background(), false, func(c *Ctx) {
			c.Spawn(func(c *Ctx) { c.Fail(boom) })
		}, true, []error{boom}},
	}
	for _, k := range kinds {
		for _, row := range rows {
			t.Run(k.name+"/"+row.name, func(t *testing.T) {
				rt := New(k.cfg)
				defer rt.Close()
				if row.drain {
					if err := rt.Drain(context.Background()); err != nil {
						t.Fatalf("Drain: %v", err)
					}
				}
				var ran atomic.Bool
				err := k.submit(rt, row.ctx, func(c *Ctx) {
					ran.Store(true)
					if row.body != nil {
						row.body(c)
					}
				})
				for _, want := range row.wantErr {
					if !errors.Is(err, want) {
						t.Errorf("error = %v, want one matching %v", err, want)
					}
				}
				if ran.Load() != row.runs {
					t.Errorf("body ran = %v, want %v", ran.Load(), row.runs)
				}
				if n := rt.LiveTasks(); n != 0 {
					t.Errorf("LiveTasks = %d after the root resolved", n)
				}
			})
		}
	}
}
