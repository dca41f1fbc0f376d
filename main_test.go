package repro_test

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// TestMain fails a passing run that leaves goroutines behind: a runtime
// a test forgot to Close keeps its workers (and, once armed, its timer
// queue's goroutine) alive for the rest of the binary. After the tests, the
// goroutine count must fall back to its value before them within a few
// seconds; if it does not, every goroutine's stack is printed so the
// leak can be placed.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 && !goroutinesSettle(before, 5*time.Second) {
		fmt.Fprintf(os.Stderr, "goroutine leak: %d running after the tests, %d before\n",
			runtime.NumGoroutine(), before)
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		code = 1
	}
	os.Exit(code)
}

// goroutinesSettle polls until at most n goroutines run or the wait
// times out, reporting which happened.
func goroutinesSettle(n int, wait time.Duration) bool {
	for deadline := time.Now().Add(wait); runtime.NumGoroutine() > n; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}
