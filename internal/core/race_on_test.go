//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; tests
// that only need volume to make their point run smaller under it.
const raceEnabled = true
