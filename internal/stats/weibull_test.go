package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestFitWeibullTailExact(t *testing.T) {
	// Synthesize an exact Weibull CCDF and recover its parameters.
	want := WeibullFit{K: 0.6, Lambda: 3.5}
	var ccdf Series
	for x := 0.5; x <= 80; x *= 1.3 {
		ccdf.Add(x, math.Exp(-math.Pow(x/want.Lambda, want.K)))
	}
	got := FitWeibullTail(ccdf)
	if math.Abs(got.K-want.K) > 1e-9 || math.Abs(got.Lambda-want.Lambda) > 1e-6 {
		t.Fatalf("fit = %+v, want %+v", got, want)
	}
	if got.R2 < 0.999 {
		t.Fatalf("R2 = %v", got.R2)
	}
}

func TestFitWeibullTailOnSampledData(t *testing.T) {
	// Sample Weibull variates by inverting the CDF, build an empirical
	// CCDF, refit.
	r := rand.New(rand.NewSource(1))
	xs := make([]int, 30000)
	for i := range xs {
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		xs[i] = int(5*math.Pow(-math.Log(u), 1/0.8)) + 1
	}
	ccdf := CCDF(xs)
	fit := FitWeibullTail(ccdf)
	if fit.K < 0.6 || fit.K > 1.05 {
		t.Fatalf("K = %v, want ~0.8 (discretization shifts it slightly)", fit.K)
	}
	if fit.R2 < 0.95 {
		t.Fatalf("R2 = %v", fit.R2)
	}
}

func TestFitWeibullSkipsDegeneratePoints(t *testing.T) {
	var ccdf Series
	ccdf.Add(0, 1) // skipped: x <= 0
	ccdf.Add(1, 1) // skipped: CCDF = 1
	ccdf.Add(2, 0) // skipped: CCDF = 0
	fit := FitWeibullTail(ccdf)
	if fit.K != 0 || fit.Lambda != 0 {
		t.Fatalf("degenerate fit = %+v, want zero", fit)
	}
}
