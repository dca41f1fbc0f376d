//go:build !race

package deps

const raceEnabled = false
