package main

import (
	"math"
	"slices"
)

// recorder keeps raw int64 latency samples in one preallocated buffer
// per recording goroutine (or exclusive thread slot), so a record is a
// plain append with no sharing and percentiles are exact: the samples
// are merged and sorted once, after the window.
type recorder struct {
	bufs [][]int64
}

// newRecorder preallocates capEach samples for each of n recorders. A
// buffer that overflows grows (one allocation, visible in
// allocs_per_op) rather than dropping samples.
func newRecorder(n, capEach int) *recorder {
	r := &recorder{bufs: make([][]int64, n)}
	for i := range r.bufs {
		r.bufs[i] = make([]int64, 0, capEach)
	}
	return r
}

// add records v from recorder g. Each g has at most one concurrent user.
func (r *recorder) add(g int, v int64) { r.bufs[g] = append(r.bufs[g], v) }

func (r *recorder) reset() {
	for i := range r.bufs {
		r.bufs[i] = r.bufs[i][:0]
	}
}

// sorted merges every buffer into one ascending slice.
func (r *recorder) sorted() []int64 {
	n := 0
	for _, b := range r.bufs {
		n += len(b)
	}
	all := make([]int64, 0, n)
	for _, b := range r.bufs {
		all = append(all, b...)
	}
	slices.Sort(all)
	return all
}

// rankValue is the nearest-rank percentile of an ascending slice: the
// smallest sample with at least p of the samples at or below it.
func rankValue(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(p * float64(len(sorted))))
	if r < 1 {
		r = 1
	}
	if r > len(sorted) {
		r = len(sorted)
	}
	return sorted[r-1]
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to be more than an order statistic of the maximum.
const tailMinBeyond = 10

// tailPercentile returns the highest percentile, capped at 0.99, that
// still has tailMinBeyond samples beyond it among n samples, never
// below the median. With n >= 1000 that is the exact p99.
func tailPercentile(n int) float64 {
	if n < 1 {
		return 0.5
	}
	p := float64(n-tailMinBeyond) / float64(n)
	return math.Min(0.99, math.Max(0.5, p))
}

// quartiles returns the first quartile, median and third quartile of
// vs with the exclusive method of Python's statistics.quantiles(n=4),
// the rule BENCHMARK.json's spreads are judged by. Fewer than two
// values return that value three times.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

func medianInt(sorted []int64) float64 { return float64(rankValue(sorted, 0.5)) }
