package main

import (
	"math"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the acceptance check's computation.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
		median float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{1, 2}, 0.75, 2.25, 1.5},
		{[]float64{3, 1, 2}, 1, 3, 2},
		{[]float64{5, 1.5, 9.25, 7, 2}, 1.75, 8.125, 5},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5, 25},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 || median(c.xs) != c.median {
			t.Errorf("%v: quartiles %v, %v and median %v, want %v, %v and %v",
				c.xs, q1, q3, median(c.xs), c.q1, c.q3, c.median)
		}
	}
	if q1, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("empty quartile %v, want NaN", q1)
	}
}

// TestPercentileRule checks the nearest-rank percentile and the rule that a
// reported percentile keeps at least ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 down to 1
	}
	if p := percentile(xs, 0.9); p != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", p)
	}
	if p := percentile(xs, 0.5); p != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", p)
	}
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
	}{
		{100, 0.9, 10}, {99, 0.9, 9}, {500, 0.95, 25}, {500, 0.99, 5}, {1, 0.9, 0},
	} {
		if got := samplesBeyond(c.n, c.q); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.q, got, c.beyond)
		}
	}
	for _, c := range []struct {
		n int
		q float64
	}{
		{1, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {800, 0.95}, {1000, 0.99}, {6000, 0.99}, {10000, 0.999},
	} {
		if got := highestPercentile(c.n); got != c.q {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.q)
		}
	}
}
