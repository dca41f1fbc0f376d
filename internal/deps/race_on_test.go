//go:build race

package deps

// raceEnabled reports whether the race detector is compiled in; tests
// that only need volume to make their point run smaller under it.
const raceEnabled = true
