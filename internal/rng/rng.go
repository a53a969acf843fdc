// Package rng provides the deterministic random-variate helpers the
// topology generators share: discrete power-law (zeta) samplers, Pareto
// variates for heavy-tailed sizes, shuffles and distinct-integer samples.
// All functions take an explicit *rand.Rand so that every generated
// topology is reproducible from a seed.
package rng

import (
	"math"
	"math/rand"
	"sort"
)

// PowerLawDegrees draws n degrees from the discrete distribution
// P(k) ∝ k^(-beta) for k in [1, kmax], the distribution the PLRG generator
// assigns to nodes. It precomputes the CDF once, so sampling is O(log kmax)
// per draw.
func PowerLawDegrees(r *rand.Rand, n int, beta float64, kmax int) []int {
	if kmax < 1 {
		kmax = 1
	}
	cdf := powerLawCDF(beta, kmax)
	out := make([]int, n)
	for i := range out {
		out[i] = sampleCDF(r, cdf) + 1
	}
	return out
}

// powerLawCDF returns the cumulative distribution over k = 1..kmax with
// weights k^(-beta).
func powerLawCDF(beta float64, kmax int) []float64 {
	cdf := make([]float64, kmax)
	sum := 0.0
	for k := 1; k <= kmax; k++ {
		sum += math.Pow(float64(k), -beta)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

func sampleCDF(r *rand.Rand, cdf []float64) int {
	u := r.Float64()
	return sort.SearchFloat64s(cdf, u)
}

// Pareto draws a continuous Pareto variate with minimum xm and shape alpha:
// P(X > x) = (xm/x)^alpha for x >= xm.
func Pareto(r *rand.Rand, xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// BoundedParetoInt draws an integer-valued Pareto variate clamped to
// [min, max]. Used for heavy-tailed AS sizes and router counts.
func BoundedParetoInt(r *rand.Rand, min, max int, alpha float64) int {
	if min >= max {
		return min
	}
	v := int(Pareto(r, float64(min), alpha))
	if v < min {
		v = min
	}
	if v > max {
		v = max
	}
	return v
}

// Shuffle permutes xs in place.
func Shuffle[T any](r *rand.Rand, xs []T) {
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// SampleInts returns k distinct integers drawn uniformly from [0, n). If
// k >= n it returns all of [0, n) in random order. It uses a partial
// Fisher–Yates so the cost is O(k) extra space beyond the map.
func SampleInts(r *rand.Rand, n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		Shuffle(r, out)
		return out
	}
	chosen := make(map[int]int, k)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		vj, ok := chosen[j]
		if !ok {
			vj = j
		}
		vi, ok := chosen[i]
		if !ok {
			vi = i
		}
		chosen[j] = vi
		out[i] = vj
	}
	return out
}
