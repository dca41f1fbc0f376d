package core

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestRunBufferNoStranding: a worker that blocks inside a body must not
// strand the tasks it buffered for itself (sched.Sync's run buffers).
// Task 0 of every round waits for task 1; when a worker takes task 0
// together with a batch that holds task 1 and everything else has run,
// the only way forward is another thread reclaiming task 1 from the
// blocked worker's buffer. A plain thread-local buffer hangs here within
// a few rounds; the watchdog turns the hang into a failure with stacks.
func TestRunBufferNoStranding(t *testing.T) {
	const rounds, batch = 200, 256
	rt := New(Config{Workers: 2})
	defer func() {
		if !t.Failed() { // Close would wait for the stranded task forever
			rt.Close()
		}
	}()
	var done atomic.Int64
	watchdog(t, 10*time.Second, done.Load, func() {
		err := rt.Run(func(c *Ctx) {
			for r := 0; r < rounds; r++ {
				ch := make(chan struct{})
				c.Spawn(func(*Ctx) { <-ch })
				c.Spawn(func(*Ctx) { close(ch) })
				for i := 2; i < batch; i++ {
					c.Spawn(func(*Ctx) {})
				}
				c.Taskwait()
				done.Add(1)
			}
		})
		if err != nil {
			t.Error(err)
		}
	})
	if s := rt.Stats(); s.Pending != 0 {
		t.Fatalf("pending = %d at quiescence", s.Pending)
	}
}
