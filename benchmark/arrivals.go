package main

import (
	"math"
	"time"
)

// rng is splitmix64: every generated input of the benchmark (arrival
// gaps, keys, deltas, initial grids) comes from one of these, seeded
// from -seed and a per-purpose stream number, so the same seed gives
// the same inputs on every Go version.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in (0, 1].
func (r *rng) float() float64 { return float64(r.next()>>11+1) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// poissonArrivals returns the due times, in nanoseconds from the start
// of the schedule, of n arrivals of a Poisson process of the given
// rate: exponential gaps, the open-loop model of independent users.
func poissonArrivals(n int, perSecond float64, seed int64) []int64 {
	r := newRNG(seed, 1)
	due := make([]int64, n)
	t := 0.0
	for i := range due {
		t += -math.Log(r.float()) / perSecond * 1e9
		due[i] = int64(t)
	}
	return due
}

var clockBase = time.Now()

// now is the benchmark's monotonic clock, nanoseconds since start.
func now() int64 { return int64(time.Since(clockBase)) }
