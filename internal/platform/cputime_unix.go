//go:build unix

package platform

import (
	"syscall"
	"time"
)

// ProcessCPUTime returns the process's cumulative CPU time (user +
// system, all threads) and whether the host can report it. The
// benchmark differences two readings around a window for its
// cpu_us_per_op metric — what wall-clock time cannot see: a parked and a
// spinning pool idle for the same duration.
func ProcessCPUTime() (time.Duration, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano()+ru.Stime.Nano()) * time.Nanosecond, true
}
