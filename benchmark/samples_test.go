package main

import (
	"math"
	"slices"
	"testing"
)

func TestRecorderExactPercentiles(t *testing.T) {
	r := newRecorder(3, 4)
	var all []int64
	rg := newRNG(7, 0)
	for i := 0; i < 3000; i++ {
		v := int64(rg.intn(1_000_000))
		r.add(i%3, v) // overflows the preallocated capacity on purpose
		all = append(all, v)
	}
	slices.Sort(all)
	got := r.sorted()
	if !slices.Equal(got, all) {
		t.Fatal("sorted() is not the multiset of recorded samples")
	}
	for _, p := range []float64{0.5, 0.9, 0.99, 1} {
		want := all[int(math.Ceil(p*3000))-1]
		if v := rankValue(got, p); v != want {
			t.Errorf("rankValue(p=%v) = %d, want %d", p, v, want)
		}
	}
	r.reset()
	if n := len(r.sorted()); n != 0 {
		t.Errorf("reset left %d samples", n)
	}
	if rankValue(nil, 0.5) != 0 {
		t.Error("rankValue of no samples is not 0")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100000, 0.99}, {1000, 0.99}, {999, 989.0 / 999}, {100, 0.90}, {41, 31.0 / 41}, {20, 0.5}, {5, 0.5}, {0, 0.5}} {
		got := tailPercentile(c.n)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if rank := int(math.Ceil(got * float64(c.n))); c.n >= 20 && c.n-rank < tailMinBeyond {
			t.Errorf("tailPercentile(%d) = %v leaves %d samples beyond, want >= %d", c.n, got, c.n-rank, tailMinBeyond)
		}
	}
}

// The expected values are statistics.quantiles(values, n=4) of Python,
// the rule BENCHMARK.json's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.vs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.vs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestPoissonArrivalsSeededAndPoisson(t *testing.T) {
	const n, rate = 20000, 1000.0
	a, b, c := poissonArrivals(n, rate, 42), poissonArrivals(n, rate, 42), poissonArrivals(n, rate, 43)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if !slices.IsSorted(a) || a[0] <= 0 {
		t.Fatal("due times are not positive and increasing")
	}
	// Exponential gaps: mean 1/rate, and a standard deviation equal to
	// the mean (a fixed-interval schedule would have none).
	var sum, sq float64
	prev := int64(0)
	for _, d := range a {
		g := float64(d - prev)
		sum, sq, prev = sum+g, sq+g*g, d
	}
	mean := sum / n
	sd := math.Sqrt(sq/n - mean*mean)
	if want := 1e9 / rate; math.Abs(mean-want) > 0.03*want || math.Abs(sd-want) > 0.05*want {
		t.Errorf("gaps have mean %.0f ns and sd %.0f ns, want both near %.0f", mean, sd, want)
	}
}
