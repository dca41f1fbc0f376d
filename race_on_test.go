//go:build race

package repro_test

// raceEnabled reports whether the race detector is compiled in: it
// disables sync.Pool caching and allocates shadow state, so allocation
// counts mean nothing under it.
const raceEnabled = true
