package main

import (
	"math"
	"slices"
)

// median returns the middle value of xs, or the mean of the two middle
// values for an even count (Python's statistics.median). NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the default
// ("exclusive") method of Python's statistics.quantiles(xs, n=4), the
// computation the acceptance check applies to a set of runs. A single value
// is its own quartiles; an empty set yields NaN.
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile returns the q-quantile of xs by nearest rank: the smallest
// sample with at least a share q of the samples at or below it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := nearestRank(len(s), q) - 1
	return s[max(0, min(i, len(s)-1))]
}

// nearestRank is ceil(q*n), ignoring the rounding error of q*n itself (in
// binary, 0.9*100 exceeds 90).
func nearestRank(n int, q float64) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// samplesBeyond is how many of n samples lie above the nearest-rank
// q-percentile. A percentile is worth reporting only with at least ten.
func samplesBeyond(n int, q float64) int {
	return n - nearestRank(n, q)
}

// minBeyond is the number of samples a reported percentile must leave above
// it.
const minBeyond = 10

// highestPercentile returns the highest of the usual reporting percentiles
// that keeps at least minBeyond of n samples beyond it, or 0 when even the
// median does not.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		if samplesBeyond(n, q) >= minBeyond {
			best = q
		}
	}
	return best
}
