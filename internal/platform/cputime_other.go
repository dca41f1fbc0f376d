//go:build !unix

package platform

import "time"

// ProcessCPUTime reports false on platforms without rusage; callers
// then have wall-clock time only.
func ProcessCPUTime() (time.Duration, bool) {
	return 0, false
}
